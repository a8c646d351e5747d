// Field visitation for flat aggregates: the one counter schema.
//
// A stats struct (VfsStats, DiskStats, ...) is its own field list. These
// helpers visit every field of such a struct in declaration order, so
// digests, field-wise sums and equality checks are derived from the struct
// declaration instead of being copied out by hand — a counter declared once
// is summed, digested and compared with no further edits.
//
//   ForEachField(s, f)       calls f(field) for every field of s
//   ForEachField(a, b, f)    calls f(field_of_a, same_field_of_b)
//   kFieldCount<T>           the number of fields of T
//
// Mechanism: the arity is the largest N for which `T{any_0, ..., any_N-1}`
// is well-formed, where `any` converts to every type; a structured binding
// of exactly that many names then unpacks the struct. A type the detection
// miscounts cannot be bound and fails to compile, and an arity above
// kMaxFields trips a static_assert: there is no silent partial visit.
//
// Requirements on T: an aggregate with no base classes, no array members
// and at most kMaxFields non-static data members (member functions such as
// a defaulted operator== are fine).
#ifndef SRC_UTIL_FIELDS_H_
#define SRC_UTIL_FIELDS_H_

#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>

namespace fsbench {
namespace fields_internal {

inline constexpr size_t kMaxFields = 24;

// Converts to any field type; only ever used in unevaluated operands.
struct AnyField {
  template <typename T>
  operator T() const;
};

template <typename T, size_t... I>
constexpr bool BraceInitializableWith(std::index_sequence<I...> /*unused*/) {
  return requires { T{(static_cast<void>(I), AnyField{})...}; };
}

template <typename T, size_t N = 0>
constexpr size_t Arity() {
  if constexpr (N <= kMaxFields &&
                BraceInitializableWith<T>(std::make_index_sequence<N + 1>{})) {
    return Arity<T, N + 1>();
  } else {
    return N;
  }
}

// Returns a tuple of references to every field of `value`, in declaration
// order (const references when `value` is const).
template <typename T>
constexpr auto Tie(T& value) {
  using Plain = std::remove_cv_t<T>;
  static_assert(std::is_aggregate_v<Plain>, "ForEachField needs an aggregate");
  constexpr size_t kArity = Arity<Plain>();
  static_assert(kArity >= 1 && kArity <= kMaxFields,
                "ForEachField: unsupported field count; extend Tie() in src/util/fields.h");
#define FSBENCH_TIE_FIELDS(n, ...)       \
  if constexpr (kArity == (n)) {         \
    auto& [__VA_ARGS__] = value;         \
    return std::tie(__VA_ARGS__);        \
  } else
  FSBENCH_TIE_FIELDS(1, a)
  FSBENCH_TIE_FIELDS(2, a, b)
  FSBENCH_TIE_FIELDS(3, a, b, c)
  FSBENCH_TIE_FIELDS(4, a, b, c, d)
  FSBENCH_TIE_FIELDS(5, a, b, c, d, e)
  FSBENCH_TIE_FIELDS(6, a, b, c, d, e, f)
  FSBENCH_TIE_FIELDS(7, a, b, c, d, e, f, g)
  FSBENCH_TIE_FIELDS(8, a, b, c, d, e, f, g, h)
  FSBENCH_TIE_FIELDS(9, a, b, c, d, e, f, g, h, i)
  FSBENCH_TIE_FIELDS(10, a, b, c, d, e, f, g, h, i, j)
  FSBENCH_TIE_FIELDS(11, a, b, c, d, e, f, g, h, i, j, k)
  FSBENCH_TIE_FIELDS(12, a, b, c, d, e, f, g, h, i, j, k, l)
  FSBENCH_TIE_FIELDS(13, a, b, c, d, e, f, g, h, i, j, k, l, m)
  FSBENCH_TIE_FIELDS(14, a, b, c, d, e, f, g, h, i, j, k, l, m, n)
  FSBENCH_TIE_FIELDS(15, a, b, c, d, e, f, g, h, i, j, k, l, m, n, o)
  FSBENCH_TIE_FIELDS(16, a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p)
  FSBENCH_TIE_FIELDS(17, a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q)
  FSBENCH_TIE_FIELDS(18, a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r)
  FSBENCH_TIE_FIELDS(19, a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s)
  FSBENCH_TIE_FIELDS(20, a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t)
  FSBENCH_TIE_FIELDS(21, a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t, u)
  FSBENCH_TIE_FIELDS(22, a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t, u, v)
  FSBENCH_TIE_FIELDS(23, a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t, u, v, w)
  FSBENCH_TIE_FIELDS(24, a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t, u, v, w, x)
  {
    return std::tuple<>{};
  }
#undef FSBENCH_TIE_FIELDS
}

}  // namespace fields_internal

template <typename T>
inline constexpr size_t kFieldCount = fields_internal::Arity<std::remove_cv_t<T>>();

template <typename T, typename F>
constexpr void ForEachField(T& value, F&& f) {
  std::apply([&f](auto&... field) { (f(field), ...); }, fields_internal::Tie(value));
}

template <typename A, typename B, typename F>
  requires std::is_same_v<std::remove_cv_t<A>, std::remove_cv_t<B>>
constexpr void ForEachField(A& a, B& b, F&& f) {
  auto fields_a = fields_internal::Tie(a);
  auto fields_b = fields_internal::Tie(b);
  [&]<size_t... I>(std::index_sequence<I...> /*unused*/) {
    (f(std::get<I>(fields_a), std::get<I>(fields_b)), ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(fields_a)>>{});
}

}  // namespace fsbench

#endif  // SRC_UTIL_FIELDS_H_

// Small-buffer-optimized move-only callable.
//
// `SmallFunction<R(Args...), N>` stores callables of up to N bytes inline
// (no heap allocation); larger or throwing-move callables fall back to a
// single heap allocation. Unlike `std::function` it is move-only, so it can
// hold move-only captures (e.g. a `std::vector` buffer or `unique_ptr`) and
// never pays for copyability it does not need. The simulator's event queue
// uses it as its callback type: typical simulation lambdas capture a few
// pointers and values and fit inline.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sdnbuf::util {

template <class Sig, std::size_t InlineBytes = 64>
class SmallFunction;

template <class R, class... Args, std::size_t InlineBytes>
class SmallFunction<R(Args...), InlineBytes> {
 public:
  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <class F, class Fn = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<Fn, SmallFunction> &&
                                     std::is_invocable_r_v<R, Fn&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  SmallFunction(SmallFunction&& other) noexcept { move_from(other); }
  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;
  ~SmallFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) { return ops_->invoke(&storage_, std::forward<Args>(args)...); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

  // Replaces the held callable with one built in place from `f`, so a
  // container slot takes a callable with a single construction. A
  // SmallFunction rvalue is moved in (relocated), never wrapped.
  template <class F>
  void assign(F&& f) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (std::is_same_v<Fn, SmallFunction>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "SmallFunction is move-only: pass it with std::move");
      move_from(f);
    } else {
      static_assert(std::is_invocable_r_v<R, Fn&, Args...>, "not callable with this signature");
      emplace(std::forward<F>(f));
    }
  }

  // True when the held callable lives in the inline buffer (test hook).
  [[nodiscard]] bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct + destroy src
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <class Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= InlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <class Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](void* s, Args&&... args) -> R {
          return (*std::launder(static_cast<Fn*>(s)))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
          Fn* from = std::launder(static_cast<Fn*>(src));
          ::new (dst) Fn(std::move(*from));
          from->~Fn();
        },
        [](void* s) noexcept { std::launder(static_cast<Fn*>(s))->~Fn(); },
        /*inline_storage=*/true,
    };
    return &ops;
  }

  template <class Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](void* s, Args&&... args) -> R {
          return (**std::launder(static_cast<Fn**>(s)))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
          ::new (dst) Fn*(*std::launder(static_cast<Fn**>(src)));
        },
        [](void* s) noexcept { delete *std::launder(static_cast<Fn**>(s)); },
        /*inline_storage=*/false,
    };
    return &ops;
  }

  template <class F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(&storage_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(&storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  void move_from(SmallFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(&storage_, &other.storage_);
      other.ops_ = nullptr;
    }
  }

  static_assert(InlineBytes >= sizeof(void*), "inline buffer must hold at least a pointer");
  alignas(std::max_align_t) std::byte storage_[InlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace sdnbuf::util

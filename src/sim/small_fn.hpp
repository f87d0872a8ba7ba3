// Move-only type-erased `void()` callable with inline small-buffer
// storage — the event representation of the simulator hot path.
//
// Every simulated action (event-queue callbacks, FPC work completions,
// DMA done handlers) is a closure over a handful of pointers: a
// component `this`, a shared segment context, a few integers. With
// std::function each such closure exceeds the libstdc++ 16-byte inline
// buffer and pays one heap allocation + free per event — the single
// largest constant cost of the simulator (see bench/micro_pipeline).
// SmallFn stores closures up to `Capacity` bytes inline; larger or
// throwing-move callables fall back to the heap transparently, so
// correctness never depends on the capacity choice, only speed.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace flextoe::sim {

template <std::size_t Capacity>
class SmallFn {
 public:
  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  SmallFn(F&& f) {  // NOLINT(runtime/explicit)
    construct<D>(std::forward<F>(f));
  }

  SmallFn(SmallFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(o.buf_, buf_);
      o.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        ops_ = o.ops_;
        o.ops_->relocate(o.buf_, buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  // Replaces the target with `f`, built directly in this object's
  // storage: no temporary SmallFn and no relocation. A SmallFn of this
  // same type is moved in instead.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<D, SmallFn>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<void, D&>);
      reset();
      construct<D>(std::forward<F>(f));
    }
  }

  // Destroys the target, leaving the SmallFn empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // True when a callable of type D is stored without a heap allocation.
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs dst from src and destroys src (trivial relocation).
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void*);
  };

  template <typename D>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<D*>(p))(); }
    static void relocate(void* src, void* dst) {
      D* f = static_cast<D*>(src);
      ::new (dst) D(std::move(*f));
      f->~D();
    }
    static void destroy(void* p) { static_cast<D*>(p)->~D(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename D>
  struct HeapOps {
    static D*& slot(void* p) { return *static_cast<D**>(p); }
    static void invoke(void* p) { (*slot(p))(); }
    static void relocate(void* src, void* dst) {
      ::new (dst) D*(slot(src));
    }
    static void destroy(void* p) { delete slot(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  // Precondition: empty.
  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace flextoe::sim

// small_fn.hpp — a move-only callable with small-buffer storage.
//
// std::function heap-allocates for any capture larger than two pointers
// (libstdc++'s inline buffer is 16 bytes), which makes it the dominant
// allocation on the scheduler hot path: every timer re-arm and packet
// delivery constructs one. BasicSmallFn stores captures up to kInlineBytes
// in place — sized for the simulator's worst callbacks (a handful of
// pointers plus a couple of values) — and falls back to the heap only
// beyond that, so steady-state event scheduling allocates nothing.
//
// `SmallFn` is the scheduler's void() alias; other signatures (e.g. the
// TCP sender's completion callback taking `const ConnStats&`) instantiate
// BasicSmallFn directly and get the same inline-storage guarantee.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace phi::util {

template <typename Sig, std::size_t N = 48>
class BasicSmallFn;  // only the R(Args...) specialization exists

template <typename R, typename... Args, std::size_t N>
class BasicSmallFn<R(Args...), N> {
 public:
  /// Inline capacity. The default 48 bytes holds six pointers or the odd
  /// lambda with a shared_ptr plus context; bench/micro_components tracks
  /// how often real workloads fit (they all do today).
  static constexpr std::size_t kInlineBytes = N;

  BasicSmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicSmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  BasicSmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in
                         // for std::function at every call site
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      // move_from copies the whole buffer; give the bytes past the
      // capture a value (one store of a compile-time size).
      if constexpr (sizeof(D) < kInlineBytes)
        __builtin_memset(buf_ + sizeof(D), 0, kInlineBytes - sizeof(D));
      ops_ = &inline_ops<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &heap_ops<D>;
    }
  }

  BasicSmallFn(BasicSmallFn&& o) noexcept { move_from(o); }

  BasicSmallFn& operator=(BasicSmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }

  BasicSmallFn(const BasicSmallFn&) = delete;
  BasicSmallFn& operator=(const BasicSmallFn&) = delete;

  ~BasicSmallFn() { reset(); }

  R operator()(Args... args) {
    return ops_->invoke(buf_, static_cast<Args&&>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    void (*move)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
    /// Inline and trivially copyable/destructible: relocation is a plain
    /// buffer copy and reset is a no-op, so the scheduler's slot churn
    /// (claim, move in, cancel) skips the indirect calls entirely.
    bool trivial;
  };

  template <typename D>
  static constexpr Ops inline_ops{
      [](void* buf, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(buf)))(
            static_cast<Args&&>(args)...);
      },
      [](void* dst, void* src) noexcept {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* buf) noexcept {
        std::launder(reinterpret_cast<D*>(buf))->~D();
      },
      std::is_trivially_copyable_v<D> &&
          std::is_trivially_destructible_v<D>};

  template <typename D>
  static constexpr Ops heap_ops{
      [](void* buf, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(buf)))(
            static_cast<Args&&>(args)...);
      },
      [](void* dst, void* src) noexcept {
        *reinterpret_cast<D**>(dst) =
            *std::launder(reinterpret_cast<D**>(src));
      },
      [](void* buf) noexcept {
        delete *std::launder(reinterpret_cast<D**>(buf));
      },
      false};

  void move_from(BasicSmallFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      if (ops_->trivial) {
        // Whole-buffer copy: branchless, vectorizes, and correct for any
        // trivially-copyable capture regardless of its actual size.
        __builtin_memcpy(buf_, o.buf_, kInlineBytes);
      } else {
        ops_->move(buf_, o.buf_);
      }
      o.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The scheduler's callback type — every schedule_* call site stores one.
using SmallFn = BasicSmallFn<void()>;

}  // namespace phi::util

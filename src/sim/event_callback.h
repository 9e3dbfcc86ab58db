// Move-only `void()` callable stored by the Simulator for each pending event.
//
// Unlike std::function it needs no copyable target, and it keeps captures of
// up to kInlineSize bytes (a `this` pointer plus a few ids, or a whole
// std::function) inside the object, so scheduling such an event allocates
// nothing. Larger or over-aligned captures, and ones whose
// move constructor may throw, fall back to one heap allocation.
#ifndef SRC_SIM_EVENT_CALLBACK_H_
#define SRC_SIM_EVENT_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace gemini {

class EventCallback {
 public:
  static constexpr size_t kInlineSize = 56;

  EventCallback() = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventCallback> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { MoveFrom(other); }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  // Destroys the target, leaving the callback empty.
  void Reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) {
      ops_->destroy(storage_);
    }
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs the target into `dst` and destroys the one in `src`;
    // null when a byte copy does that (trivially copyable targets, and the
    // pointer to a heap target).
    void (*relocate)(void* dst, void* src);
    // Null when the target is trivially destructible.
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr bool kFitsInline = sizeof(Fn) <= kInlineSize &&
                                      alignof(Fn) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static void Relocate(void* dst, void* src) {
    Fn* from = static_cast<Fn*>(src);
    ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<Fn*>(s))(); },
      std::is_trivially_copyable_v<Fn> ? nullptr : &Relocate<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr
                                           : +[](void* s) { static_cast<Fn*>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<Fn**>(s))(); },
      nullptr,
      [](void* s) { delete *static_cast<Fn**>(s); },
  };

  void MoveFrom(EventCallback& other) noexcept {
    if (other.ops_ == nullptr) {
      return;
    }
    if (other.ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineSize);
    } else {
      other.ops_->relocate(storage_, other.storage_);
    }
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace gemini

#endif  // SRC_SIM_EVENT_CALLBACK_H_

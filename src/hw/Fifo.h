//===- Fifo.h - Inter-stage FIFO -------------------------------*- C++ -*-===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FIFO abstraction over pipeline registers (Section 5.1). The default
/// depth of 2 matches the default BSV FIFO the paper's compiler emits; a
/// depth-1 FIFO models a single pipeline register.
///
//===----------------------------------------------------------------------===//

#ifndef PDL_HW_FIFO_H
#define PDL_HW_FIFO_H

#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

namespace pdl {
namespace hw {

template <typename T> class Fifo {
public:
  /// Observability hook: notified after every enqueue/dequeue with the item
  /// and the resulting depth. Null (the default) costs one branch per
  /// operation. The executor installs adapters that forward to the trace
  /// bus; see src/obs.
  struct Listener {
    virtual ~Listener() = default;
    virtual void onEnq(const T &Item, size_t Depth) = 0;
    virtual void onDeq(const T &Item, size_t Depth) = 0;
  };

  /// A FIFO models bounded hardware, so its storage is a fixed ring of
  /// \p Capacity slots allocated once: enqueue and dequeue move items in
  /// and out of slots and never allocate.
  explicit Fifo(unsigned Capacity = 2) : Capacity(Capacity), Slots(Capacity) {
    assert(Capacity >= 1 && "FIFO capacity must be positive");
  }

  void setListener(Listener *NewListener) { L = NewListener; }

  bool canEnq() const { return Count < Capacity; }
  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }
  unsigned capacity() const { return Capacity; }

  void enq(T Item) {
    if (!canEnq()) {
      // Debug builds assert (the executor's backpressure checks should make
      // overflow impossible); release builds report once and drop the item
      // instead of growing past the modeled hardware capacity.
      assert(false && "FIFO overflow");
      if (!WarnedOverflow) {
        WarnedOverflow = true;
        std::fprintf(stderr, "pdl: FIFO overflow (capacity %u); "
                             "enqueue dropped\n",
                     Capacity);
      }
      return;
    }
    if (DropArm > 0 && --DropArm == 0) {
      auto Fire = std::move(DropOnFire);
      DropOnFire = nullptr;
      if (Fire)
        Fire();
      return; // the item vanishes: no storage update, no listener event
    }
    if (CorruptArm > 0 && --CorruptArm == 0) {
      auto Mut = std::move(CorruptFn);
      CorruptFn = nullptr;
      if (Mut)
        Mut(Item);
    }
    bool Dup = DupArm > 0 && --DupArm == 0;
    T &Stored = push(std::move(Item));
    if (L)
      L->onEnq(Stored, Count);
    if (Dup) {
      auto Fire = std::move(DupOnFire);
      DupOnFire = nullptr;
      if (Fire)
        Fire();
      if (canEnq()) {
        T &Copy = push(T(Stored));
        if (L)
          L->onEnq(Copy, Count);
      }
    }
  }

  T &front() {
    if (empty()) {
      assert(false && "front of an empty FIFO");
      warnUnderflow("front");
      static T Dummy{};
      return Dummy;
    }
    return Slots[Head];
  }
  const T &front() const {
    return const_cast<Fifo *>(this)->front();
  }

  T deq() {
    if (empty()) {
      assert(false && "dequeue of an empty FIFO");
      warnUnderflow("dequeue");
      return T{};
    }
    T Item = std::move(Slots[Head]);
    Head = at(1);
    --Count;
    if (L)
      L->onDeq(Item, Count);
    return Item;
  }

  void clear() {
    for (T &Slot : Slots)
      Slot = T{};
    Head = Count = 0;
  }

  /// Removes items matching \p Pred (used to squash killed threads),
  /// keeping the others in order.
  template <typename Fn> void removeIf(Fn Pred) {
    unsigned Kept = 0;
    for (unsigned I = 0; I != Count; ++I) {
      T &Item = Slots[at(I)];
      if (Pred(Item))
        continue;
      if (Kept != I)
        Slots[at(Kept)] = std::move(Item);
      ++Kept;
    }
    while (Count > Kept)
      Slots[at(--Count)] = T{};
  }

  /// Oldest-first iteration over the live items.
  template <typename Q, typename F> class Iter {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = Q *;
    using reference = Q &;

    Iter(F *Owner, unsigned I) : Owner(Owner), I(I) {}
    Q &operator*() const { return Owner->Slots[Owner->at(I)]; }
    Q *operator->() const { return &**this; }
    Iter &operator++() {
      ++I;
      return *this;
    }
    bool operator!=(const Iter &O) const { return I != O.I; }
    bool operator==(const Iter &O) const { return I == O.I; }

  private:
    F *Owner;
    unsigned I;
  };
  using iterator = Iter<T, Fifo>;
  using const_iterator = Iter<const T, const Fifo>;

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, Count}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, Count}; }

  /// Fault injection (src/hw/Fault.h): swallow the \p Nth enqueue from now.
  /// \p OnFire runs when the fault actually triggers (for accounting).
  void armDropNext(uint64_t Nth, std::function<void()> OnFire = nullptr) {
    DropArm = Nth;
    DropOnFire = std::move(OnFire);
  }

  /// Fault injection: enqueue the \p Nth item twice (if capacity allows).
  void armDupNext(uint64_t Nth, std::function<void()> OnFire = nullptr) {
    DupArm = Nth;
    DupOnFire = std::move(OnFire);
  }

  /// Fault injection: pass the \p Nth enqueued item through \p Mutate before
  /// it is stored (e.g. flip one payload bit).
  void armCorruptNext(uint64_t Nth, std::function<void(T &)> Mutate) {
    CorruptArm = Nth;
    CorruptFn = std::move(Mutate);
  }

  /// Snapshot support: remaining armed-fault counters (0 = not armed or
  /// already fired). The closures themselves are rebuilt by the restorer,
  /// which re-arms with these counts.
  uint64_t dropArm() const { return DropArm; }
  uint64_t dupArm() const { return DupArm; }
  uint64_t corruptArm() const { return CorruptArm; }

  /// Snapshot support: replaces the stored items wholesale (oldest first)
  /// without firing listeners or armed faults. Used by System::restore to
  /// rebuild a snapshotted FIFO in place (the Fifo object itself — and any
  /// taps pointing at it — stays alive).
  void restoreItems(std::vector<T> NewItems) {
    assert(NewItems.size() <= Capacity && "restored FIFO over capacity");
    clear();
    for (T &Item : NewItems)
      if (canEnq())
        push(std::move(Item));
  }

private:
  /// Slot of the \p I-th oldest item.
  unsigned at(unsigned I) const {
    unsigned S = Head + I;
    return S >= Capacity ? S - Capacity : S;
  }
  T &push(T &&Item) {
    T &Slot = Slots[at(Count)];
    Slot = std::move(Item);
    ++Count;
    return Slot;
  }

  void warnUnderflow(const char *What) const {
    if (WarnedUnderflow)
      return;
    WarnedUnderflow = true;
    std::fprintf(stderr, "pdl: FIFO underflow (%s of an empty FIFO); "
                         "returning a default item\n",
                 What);
  }

  unsigned Capacity;
  std::vector<T> Slots;
  unsigned Head = 0;  // slot of the oldest item
  unsigned Count = 0; // live items, in slots Head, Head+1, ... (mod Capacity)
  Listener *L = nullptr;
  mutable bool WarnedOverflow = false, WarnedUnderflow = false;
  uint64_t DropArm = 0, DupArm = 0, CorruptArm = 0;
  std::function<void()> DropOnFire, DupOnFire;
  std::function<void(T &)> CorruptFn;
};

} // namespace hw
} // namespace pdl

#endif // PDL_HW_FIFO_H

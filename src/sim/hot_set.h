// Deduplicated candidate-session set for the multi-session algorithms.
//
// Each algorithm keeps the set of sessions that might be in a non-quiescent
// state (nonempty queue, boosted regular allocation, nonzero overflow
// allocation, or a regular allocation not yet at its share). Stage
// boundaries iterate this set instead of all k sessions; sessions outside
// it are provably no-ops for every boundary action, so skipping them is
// exact, not approximate. The set starts full, ascending, since before the
// first RESET no session holds its share yet; Init::kEmpty builds an empty
// set instead.
//
// Add() is O(1) amortized with O(1) duplicate suppression (a flag per
// session). Boundary processing calls SortAscending() first — trace bytes
// must come out in session order, as a loop over 0..k-1 would emit them —
// then FilterInPlace() to drop sessions the caller has verified quiescent.
// PinAll() (the full-sweep test hook) makes the set every session for good.
// Loops that walk the set at phase boundaries, stage ends and RESETs go
// through Sweep(), which counts the entries it hands out: the
// deterministic work counter behind EventEngineStats::boundary_visits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "state/serializer.h"
#include "util/assert.h"

namespace bwalloc {

class HotSet {
 public:
  enum class Init { kFull, kEmpty };

  explicit HotSet(std::int64_t sessions, Init init = Init::kFull)
      : member_(static_cast<std::size_t>(sessions)) {
    if (init == Init::kFull) Fill();
  }

  // Makes the set every session, ascending. O(k).
  void Fill() {
    std::fill(member_.begin(), member_.end(), 1);
    items_.resize(member_.size());
    std::iota(items_.begin(), items_.end(), std::int64_t{0});
  }

  // Every session, ascending, from now on: FilterInPlace and LoadState
  // keep the set full.
  void PinAll() {
    pinned_ = true;
    Fill();
  }

  void Add(std::int64_t session) {
    auto& flag = member_[static_cast<std::size_t>(session)];
    if (flag) return;
    flag = 1;
    items_.push_back(session);
  }

  bool Contains(std::int64_t session) const {
    return member_[static_cast<std::size_t>(session)] != 0;
  }

  void SortAscending() { std::sort(items_.begin(), items_.end()); }

  // Keeps sessions for which keep(i) is true; removes the rest from the
  // set. Call only outside iteration. Preserves current item order.
  template <typename Keep>
  void FilterInPlace(Keep&& keep) {
    if (pinned_) return;
    std::size_t w = 0;
    for (std::size_t r = 0; r < items_.size(); ++r) {
      const std::int64_t i = items_[r];
      if (keep(i)) {
        items_[w++] = i;
      } else {
        member_[static_cast<std::size_t>(i)] = 0;
      }
    }
    items_.resize(w);
  }

  // The items in their current order, counted into visits(). The count is
  // observer metadata: it is not checkpointed.
  const std::vector<std::int64_t>& Sweep() {
    visits_ += static_cast<std::int64_t>(items_.size());
    return items_;
  }
  std::int64_t visits() const { return visits_; }
  std::int64_t size() const { return static_cast<std::int64_t>(items_.size()); }
  bool empty() const { return items_.empty(); }

  void Clear() {
    for (const std::int64_t i : items_) {
      member_[static_cast<std::size_t>(i)] = 0;
    }
    items_.clear();
  }

  // Item order is semantic (boundary iteration order between sorts), so
  // items_ travels verbatim and member_ is rebuilt from it.
  void SaveState(StateWriter& w) const {
    w.Tag("HOT1");
    w.U64(items_.size());
    for (const std::int64_t i : items_) w.I64(i);
  }

  void LoadState(StateReader& r) {
    r.Tag("HOT1");
    Clear();
    const std::uint64_t n = r.Count(member_.size());
    items_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::int64_t s = r.I64();
      if (s < 0 || static_cast<std::size_t>(s) >= member_.size()) {
        throw StateFormatError("hot set session index out of range");
      }
      member_[static_cast<std::size_t>(s)] = 1;
      items_.push_back(s);
    }
    if (pinned_) Fill();
  }

 private:
  std::vector<char> member_;
  std::vector<std::int64_t> items_;
  bool pinned_ = false;
  std::int64_t visits_ = 0;
};

}  // namespace bwalloc

#include "compress/compressor.h"

#include <algorithm>
#include <vector>

#include "obs/registry.h"

namespace spire {

namespace {

struct Instruments {
  obs::Counter* reports;
  obs::Counter* retires;
  obs::Counter* suppressed_locations;
};

const Instruments* GetInstruments() {
  if (!obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  static const Instruments instruments{
      registry.GetCounter("compress", "reports"),
      registry.GetCounter("compress", "retires"),
      registry.GetCounter("compress", "suppressed_locations"),
  };
  return &instruments;
}

}  // namespace

Compressor::Compressor(CompressorOptions options, bool hands_over)
    : options_(options), hands_over_(hands_over) {}

void Compressor::Report(const ObjectStateEstimate& state, Epoch epoch,
                        EventStream* out) {
  if (const Instruments* instruments = GetInstruments()) {
    instruments->reports->Add(1);
  }
  Tracked& tracked = tracked_[state.object];
  Touch(state.object, tracked);
  const LocationId before = EffectiveLocation(tracked);
  EmitContainmentChange(tracked, state, epoch, out);
  EmitLocationChange(tracked, state, epoch, out);
  // The emitted stream must keep a contained object's stay in lockstep with
  // its container's: the decompressor copies a container's location events
  // down to its transitive contents, so level 1 has to show the same moves
  // explicitly even when inference never re-estimated the children this
  // epoch. Triggered by a transition of this object's *effective* location —
  // explicit or derived — exactly the transitions that propagate on the
  // decompression side (an explicit move, or a derived stay rebuilt under a
  // new root after a containment change).
  const LocationId after = EffectiveLocation(tracked);
  if (after != before) {
    // One exception: a Missing message does not propagate on the
    // decompression side — it closes only the missing object's own stay.
    // The children's fate arrives with their own reports.
    if (after != kUnknownLocation || !tracked.missing_reported) {
      PropagateLocation(state.object, after, epoch, out);
    }
  }
}

void Compressor::PropagateLocation(ObjectId parent, LocationId location,
                                   Epoch epoch, EventStream* out) {
  auto it = children_.find(parent);
  if (it == children_.end()) return;
  // std::set keeps the children in ascending id order -> deterministic output.
  for (ObjectId child : it->second) {
    auto tracked_it = tracked_.find(child);
    if (tracked_it == tracked_.end()) continue;
    Tracked& child_tracked = tracked_it->second;
    // A child inferred missing stays missing until it is sighted again; the
    // decompressor skips missing-marked children the same way.
    if (child_tracked.missing_reported) continue;
    Touch(child, child_tracked);
    if (SuppressContainedLocation(child_tracked)) {
      if (location == kUnknownLocation) {
        // A container departing with no destination only takes *derived*
        // stays with it (the decompressor's End propagation skips explicit
        // ones); an explicitly tracked child keeps its stay until its own
        // report settles it, so no close is emitted here either way.
        if (child_tracked.open_location == kUnknownLocation &&
            child_tracked.derived_open) {
          child_tracked.derived_open = false;
          child_tracked.location_start = kNeverEpoch;
        }
        PropagateLocation(child, location, epoch, out);
        continue;
      }
      // The decompressor rebuilds the stay of a previously located
      // suppressed child under the moved root (or re-derives one it had
      // closed); mirror that belief so the child's own agreeing reports
      // stay silent.
      if (child_tracked.open_location == kUnknownLocation &&
          child_tracked.last_known_location != kUnknownLocation) {
        if (!child_tracked.derived_open ||
            location != child_tracked.last_known_location) {
          child_tracked.location_start = epoch;
        }
        child_tracked.derived_open = true;
      }
    }
    ObjectStateEstimate follow;
    follow.object = child;
    follow.location = location;
    follow.container = child_tracked.open_container;
    follow.missing = false;
    EmitLocationChange(child_tracked, follow, epoch, out);
    PropagateLocation(child, location, epoch, out);
  }
}

void Compressor::EmitContainmentChange(Tracked& tracked,
                                       const ObjectStateEstimate& state,
                                       Epoch epoch, EventStream* out) {
  if (state.container == tracked.open_container) return;
  const bool had_derived = tracked.derived_open;
  const Epoch derived_start = tracked.location_start;
  CloseContainment(state.object, tracked, epoch, out);
  // Ending a containment ends the derived stay it carried (the decompressor
  // closes it together with the EndContainment message). Whether derivation
  // resumes under a new chain depends on the new container below.
  if (had_derived) tracked.derived_open = false;
  if (state.container != kNoObject) {
    if (options_.emit_containment) {
      out->push_back(Event::StartContainment(state.object, state.container,
                                             epoch));
    }
    tracked.open_container = state.container;
    tracked.containment_start = epoch;
    children_[state.container].insert(state.object);
    // Level 2: entering containment closes the explicit stay exactly once;
    // from here on the container's events imply this object's location. Only
    // sound when decompression would derive the very same location — the
    // root of the containment chain has an open stay at the object's
    // reported location. Otherwise the stay stays explicit (suppression
    // would lose, not defer, the information).
    if (SuppressContainedLocation(tracked) &&
        state.location != kUnknownLocation &&
        DerivedRootLocation(tracked) == state.location &&
        tracked.open_location != kUnknownLocation) {
      const Epoch stay_start = tracked.location_start;
      CloseLocation(state.object, tracked, epoch, out);
      tracked.derived_open = true;
      // The derived stay keeps the interval: the decompressor re-derives it
      // at this epoch and duplicate suppression splices the start back.
      tracked.location_start = stay_start;
      suppress_closed_.push_back(state.object);
    } else if (had_derived && SuppressContainedLocation(tracked) &&
               tracked.open_location == kUnknownLocation &&
               !tracked.missing_reported &&
               !(state.location == kUnknownLocation && state.missing)) {
      // (A vanishing report is excluded: the Missing singleton emitted right
      // after must carry the stay's own last location, and the decompressor
      // never re-derives a missing object under the new chain.)
      // A derived stay moving between containers: the decompressor closes
      // it with the old containment and re-derives it under the new chain
      // root, so derivation can continue without an explicit resume. Like a
      // suppress-close this is a bet on the root's end-of-epoch stay;
      // CancelEpochChurn re-checks it.
      const LocationId root = DerivedRootLocation(tracked);
      if (root != kUnknownLocation) {
        tracked.derived_open = true;
        if (root == tracked.last_known_location) {
          tracked.location_start = derived_start;  // Interval splices through.
        } else {
          tracked.location_start = epoch;
          tracked.last_known_location = root;
        }
      } else {
        // Root not (yet) located: leave the belief pending; the repair pass
        // either confirms a late-arriving root stay or resumes explicitly.
        tracked.location_start = derived_start;
      }
      suppress_closed_.push_back(state.object);
    }
  }
}

LocationId Compressor::EffectiveLocation(const Tracked& tracked) const {
  if (tracked.open_location != kUnknownLocation) return tracked.open_location;
  if (tracked.missing_reported) return kUnknownLocation;
  // Without a derived stay there is nothing to show: the decompressor gives
  // a derived stay only to objects it has seen a location for (first
  // sightings are always explicit).
  if (!tracked.derived_open) return kUnknownLocation;
  if (SuppressContainedLocation(tracked)) return DerivedRootLocation(tracked);
  return kUnknownLocation;
}

LocationId Compressor::DerivedRootLocation(const Tracked& tracked) const {
  ObjectId parent = tracked.open_container;
  while (parent != kNoObject) {
    auto it = tracked_.find(parent);
    if (it == tracked_.end()) return kUnknownLocation;
    if (it->second.open_container == kNoObject) {
      return it->second.open_location;
    }
    parent = it->second.open_container;
  }
  return kUnknownLocation;
}

void Compressor::EmitLocationChange(Tracked& tracked,
                                    const ObjectStateEstimate& state,
                                    Epoch epoch, EventStream* out) {
  if (SuppressContainedLocation(tracked) &&
      DerivedRootLocation(tracked) != kUnknownLocation) {
    if (state.location != kUnknownLocation) {
      if (tracked.missing_reported ||
          tracked.open_location != kUnknownLocation ||
          !tracked.derived_open ||
          state.location != DerivedRootLocation(tracked)) {
        // Explicit tracking inside an intact containment, for four causes:
        // a reappearance after Missing (the singleton interrupted the
        // derived location), an already-explicit stay, the absence of a
        // derived stay to lean on (first sightings are always explicit — a
        // bare containment edge cannot tell a suppressed location from an
        // object that never had one), or a location that disagrees with
        // what decompression would derive from the chain's root. The stay
        // keeps emitting explicitly until the end-of-epoch handover returns
        // it to derivation or the object vanishes again.
        tracked.missing_reported = false;
        if (state.location != tracked.open_location) {
          CloseLocation(state.object, tracked, epoch, out);
          if (options_.emit_location) {
            out->push_back(
                Event::StartLocation(state.object, state.location, epoch));
          }
          tracked.open_location = state.location;
          tracked.location_start = epoch;
          tracked.derived_open = false;
        }
      } else {
        // The report agrees with the derived chain-root location: level-2
        // suppression proper — nothing reaches the stream.
        if (const Instruments* instruments = GetInstruments()) {
          instruments->suppressed_locations->Add(1);
        }
        if (observer_ != nullptr) {
          observer_->OnLocationSuppressed(state.object, epoch,
                                          tracked.open_container);
        }
      }
      tracked.last_known_location = state.location;
      return;
    }
    if (state.missing) {
      // A contained object can still be reported missing; the containment
      // pair encloses the Missing singleton (Section V-A).
      CloseLocation(state.object, tracked, epoch, out);
      EmitMissing(state.object, tracked, epoch, out);
    } else {
      CloseLocation(state.object, tracked, epoch, out);
    }
    return;
  }

  if (state.location != kUnknownLocation) {
    tracked.missing_reported = false;
    if (state.location == tracked.open_location) return;
    CloseLocation(state.object, tracked, epoch, out);
    if (options_.emit_location) {
      out->push_back(Event::StartLocation(state.object, state.location, epoch));
    }
    tracked.open_location = state.location;
    tracked.location_start = epoch;
    tracked.last_known_location = state.location;
    tracked.derived_open = false;
    return;
  }

  // The object is away from every known location: close the open stay and,
  // for an anomaly, flag it with a Missing singleton.
  CloseLocation(state.object, tracked, epoch, out);
  if (state.missing) EmitMissing(state.object, tracked, epoch, out);
}

void Compressor::EmitMissing(ObjectId object, Tracked& tracked, Epoch epoch,
                             EventStream* out) {
  if (tracked.missing_reported) return;
  // An object that was never located has no location to be missing *from*;
  // the Missing singleton is withheld until a first sighting gives it one.
  if (tracked.last_known_location == kUnknownLocation) return;
  if (options_.emit_location) {
    out->push_back(
        Event::Missing(object, tracked.last_known_location, epoch));
  }
  tracked.missing_reported = true;
  // The Missing singleton closes any derived stay on the decompression side.
  tracked.derived_open = false;
  tracked.location_start = kNeverEpoch;
}

void Compressor::CloseLocation(ObjectId object, Tracked& tracked, Epoch epoch,
                               EventStream* out) {
  if (tracked.open_location == kUnknownLocation) return;
  if (options_.emit_location) {
    out->push_back(Event::EndLocation(object, tracked.open_location,
                                      tracked.location_start, epoch));
  }
  tracked.open_location = kUnknownLocation;
  tracked.location_start = kNeverEpoch;
}

void Compressor::CloseContainment(ObjectId object, Tracked& tracked,
                                  Epoch epoch, EventStream* out) {
  if (tracked.open_container == kNoObject) return;
  if (options_.emit_containment) {
    out->push_back(Event::EndContainment(object, tracked.open_container,
                                         tracked.containment_start, epoch));
  }
  auto it = children_.find(tracked.open_container);
  if (it != children_.end()) {
    it->second.erase(object);
    if (it->second.empty()) children_.erase(it);
  }
  tracked.open_container = kNoObject;
  tracked.containment_start = kNeverEpoch;
}

void Compressor::Retire(ObjectId object, Epoch epoch, EventStream* out) {
  auto it = tracked_.find(object);
  if (it == tracked_.end()) return;
  if (const Instruments* instruments = GetInstruments()) {
    instruments->retires->Add(1);
  }
  ReleaseChildren(object, epoch, out);
  CloseContainment(object, it->second, epoch, out);
  CloseLocation(object, it->second, epoch, out);
  // A retired object leaves no entry to test; its contents were released
  // (and touched) above. Swap its touched_ entry out before the erase.
  if (const std::uint32_t slot = it->second.touched_slot;
      slot != kNotTouched) {
    touched_[slot] = touched_.back();
    touched_[slot].tracked->touched_slot = slot;
    touched_.pop_back();
  }
  tracked_.erase(it);
}

void Compressor::ReleaseChildren(ObjectId object, Epoch epoch,
                                 EventStream* out) {
  auto children_it = children_.find(object);
  if (children_it == children_.end()) return;
  // Closing a child's containment mutates children_[object]; snapshot first.
  // The std::set gives ascending id order, so the output is deterministic.
  std::vector<ObjectId> kids(children_it->second.begin(),
                             children_it->second.end());
  for (ObjectId child : kids) {
    auto tracked_it = tracked_.find(child);
    if (tracked_it == tracked_.end()) continue;
    Tracked& child_tracked = tracked_it->second;
    Touch(child, child_tracked);
    const bool was_suppressed = SuppressContainedLocation(child_tracked);
    CloseContainment(child, child_tracked, epoch, out);
    // A suppressed child's stay was derived from this container; once the
    // container retires, nothing carries it any more, so the stay resumes
    // explicitly at its last derived location. Missing children stay missing.
    if (was_suppressed && child_tracked.open_location == kUnknownLocation &&
        !child_tracked.missing_reported && child_tracked.derived_open) {
      if (options_.emit_location) {
        out->push_back(Event::StartLocation(
            child, child_tracked.last_known_location, epoch));
      }
      child_tracked.open_location = child_tracked.last_known_location;
      child_tracked.location_start = epoch;
      child_tracked.derived_open = false;
    }
  }
}

void Compressor::CancelEpochChurn(Epoch epoch, EventStream* out,
                                  std::size_t first) {
  // A suppress-close at containment entry bet that the decompressor could
  // re-derive the stay from the chain root. If the root's own stay closed
  // later in the same epoch, nothing on the decompression side rebuilds the
  // child's stay — so it must not have closed: resume it explicitly; the
  // churn pass below then splices the End/Start pair back together.
  for (ObjectId object : suppress_closed_) {
    auto it = tracked_.find(object);
    if (it == tracked_.end()) continue;  // Retired later this epoch.
    Tracked& tracked = it->second;
    if (tracked.open_location != kUnknownLocation) continue;
    if (tracked.missing_reported) continue;
    if (tracked.last_known_location == kUnknownLocation) continue;
    if (SuppressContainedLocation(tracked) &&
        DerivedRootLocation(tracked) == tracked.last_known_location) {
      tracked.derived_open = true;  // The bet held; derivation carries on.
      continue;
    }
    if (options_.emit_location) {
      out->push_back(
          Event::StartLocation(object, tracked.last_known_location, epoch));
    }
    tracked.open_location = tracked.last_known_location;
    tracked.location_start = epoch;
    tracked.derived_open = false;
  }
  suppress_closed_.clear();
  for (const ChurnSplice& splice : CancelLocationChurn(out, first)) {
    // The stay never ended; its bookkeeping must regain the original start
    // so a future close emits the spliced interval.
    auto it = tracked_.find(splice.object);
    if (it != tracked_.end() && it->second.open_location == splice.location) {
      it->second.location_start = splice.start;
    }
  }
  // End-of-epoch handover (Section V-C): an explicit stay whose location
  // provably equals what decompression derives from its chain root carries
  // no information any more — close it and let derivation take over. The
  // matching End makes the decompressor re-derive the stay in place, and
  // its duplicate suppression splices the interval back together, so this
  // object's later location updates can be suppressed entirely. Emitted
  // after the churn pass on purpose: the close must survive into the
  // stream even when the stay opened this same epoch.
  //
  // No object satisfies HandsOver after a handover, and the predicate reads
  // only the object's own entry and the containment links and root stay of
  // its chain. So only a touched object, or one under a touched object
  // whose link or stay changed, can satisfy it now: close touched_ over
  // children_ from the chain-changed entries, then test each member once.
  const std::size_t touched_before_closure = touched_.size();
  for (std::size_t i = 0; i < touched_before_closure; ++i) {
    if (ChainChanged(*touched_[i].tracked)) TouchContents(touched_[i].object);
  }
  std::vector<ObjectId> handover;
  for (const TouchedEntry& entry : touched_) {
    entry.tracked->touched_slot = kNotTouched;
    if (HandsOver(*entry.tracked)) handover.push_back(entry.object);
  }
  touched_.clear();
  std::sort(handover.begin(), handover.end());
  for (ObjectId object : handover) {
    Tracked& tracked = tracked_.at(object);
    const LocationId location = tracked.open_location;
    const Epoch start = tracked.location_start;
    CloseLocation(object, tracked, epoch, out);
    tracked.last_known_location = location;
    tracked.derived_open = true;
    tracked.location_start = start;  // The derived stay keeps the interval.
  }
}

void Compressor::TouchContents(ObjectId object) {
  auto children_it = children_.find(object);
  if (children_it == children_.end()) return;
  for (ObjectId child : children_it->second) {
    Tracked& tracked = tracked_.at(child);
    // Only an entry touched before the closure can have changed; an entry
    // the closure touches records its current state.
    const bool walks_itself =
        tracked.touched_slot != kNotTouched && ChainChanged(tracked);
    Touch(child, tracked);
    if (!walks_itself) TouchContents(child);
  }
}

std::vector<ObjectId> Compressor::PendingHandovers() const {
  std::vector<ObjectId> pending;
  for (const auto& [object, tracked] : tracked_) {
    if (HandsOver(tracked)) pending.push_back(object);
  }
  std::sort(pending.begin(), pending.end());
  return pending;
}

void Compressor::Finish(Epoch epoch, EventStream* out) {
  std::vector<ObjectId> objects;
  objects.reserve(tracked_.size());
  for (const auto& [id, tracked] : tracked_) objects.push_back(id);
  std::sort(objects.begin(), objects.end());
  for (ObjectId id : objects) Retire(id, epoch, out);
}

}  // namespace spire

// Online stream compression (Section V).
//
// A compressor consumes one interpreted per-object state per epoch and emits
// only the events that signal a *state change*; readings that merely confirm
// the current state are redundant and dropped. Two levels exist:
//
//  * Level 1 (range compression): an object's stay at one location, or one
//    containment relationship, is collapsed into a single ranged event.
//  * Level 2 (location compression using containment): additionally, while
//    an object's containment is stable, its location updates are suppressed
//    entirely — the location is recoverable from the container's updates
//    (see compress/decompress.h). This minimizes location output to
//    top-level containers only.
//
// Both levels are lossless with respect to the interpreted state stream.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "compress/event.h"
#include "common/types.h"

namespace spire {

/// The interpreted state of one object at one epoch, as produced by the
/// interpretation module after conflict resolution.
struct ObjectStateEstimate {
  ObjectId object = kNoObject;
  /// Most likely location; kUnknownLocation means the object is away from
  /// every known location (missing / in transit).
  LocationId location = kUnknownLocation;
  /// Most likely direct container; kNoObject when uncontained.
  ObjectId container = kNoObject;
  /// When the location is unknown: emit a Missing singleton (true, the
  /// interpretation semantics — inference cannot tell transit from theft)
  /// or only close the open location event (false, used by the ground-truth
  /// recorder for ordinary transits between locations).
  bool missing = true;
};

/// Options shared by both compression levels.
struct CompressorOptions {
  /// When false, Start/EndContainment messages are suppressed from output
  /// (Expt 8 measures "location events only" streams this way). Containment
  /// is still *tracked* for level-2 suppression decisions.
  bool emit_containment = true;
  /// When false, location messages are suppressed (containment-only stream).
  bool emit_location = true;
};

/// Observes level-2 suppression decisions. Wired up by the explain channel;
/// null (the default) costs one pointer compare per suppressed report.
class CompressorObserver {
 public:
  virtual ~CompressorObserver() = default;
  /// A contained object's location report was dropped entirely: the
  /// decompressor derives the same location through the chain opened by
  /// `covering_container`, so the report carried no information.
  virtual void OnLocationSuppressed(ObjectId object, Epoch epoch,
                                    ObjectId covering_container) = 0;
};

/// Base class implementing the shared change-detection state machine.
/// Subclasses decide whether a contained object's location updates are
/// emitted (level 1) or suppressed (level 2).
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Installs (or clears, with nullptr) the suppression observer. Not owned.
  void SetObserver(CompressorObserver* observer) { observer_ = observer; }

  /// Reports the newly interpreted state of an object at `epoch`, appending
  /// any resulting events to `out`. Reporting the unchanged state is a
  /// no-op (that is the compression). Objects may be reported at any epoch
  /// cadence; unreported objects simply keep their last state.
  void Report(const ObjectStateEstimate& state, Epoch epoch, EventStream* out);

  /// The object left the physical world through a proper channel: releases
  /// its contents (their containments close and suppressed stays resume
  /// explicitly), closes its own open events, and forgets it.
  void Retire(ObjectId object, Epoch epoch, EventStream* out);

  /// The container named by this object's open containment event, or
  /// kNoObject. Lets the pipeline order reports so containment-terminating
  /// updates precede the former container's location updates.
  ObjectId OpenContainerOf(ObjectId object) const {
    auto it = tracked_.find(object);
    return it == tracked_.end() ? kNoObject : it->second.open_container;
  }

  /// Closes every open event (end of trace) so the stream is well-formed.
  void Finish(Epoch epoch, EventStream* out);

  /// Removes meaningless End/Start churn from one epoch's output slice
  /// [first, out->size()): a stay that ends and restarts at the same
  /// location within one epoch never really ended. Containment-driven
  /// propagation can close a child's stay that the child's own (later)
  /// report re-opens in place; the decompressor cancels exactly such pairs
  /// (Section V-C duplicate suppression), so the emitted stream must not
  /// keep them either. Also repairs suppress-closes whose derivation chain
  /// evaporated within the epoch (the chain root's stay closed after the
  /// child's stay was suppressed against it) by resuming those stays
  /// explicitly, and hands explicit stays that match their chain root's
  /// location over to derived tracking (level 2's steady state: a closing
  /// End whose location the decompressor re-derives in place). Call once
  /// per epoch after all Report/Retire calls.
  void CancelEpochChurn(Epoch epoch, EventStream* out, std::size_t first);

  /// Full-scan check of the handover invariant, for tests and the check
  /// harness only (the hot path never calls it): the objects whose explicit
  /// stay the end-of-epoch handover would close right now, ascending. Empty
  /// after every CancelEpochChurn.
  std::vector<ObjectId> PendingHandovers() const;

  /// Number of objects currently tracked.
  std::size_t tracked_objects() const { return tracked_.size(); }

  /// Entries on the touched list awaiting the next handover (always 0 at
  /// level 1, which never hands over).
  std::size_t touched_objects() const { return touched_.size(); }

 protected:
  /// `hands_over` is true when the level hook can suppress (level 2): only
  /// then are touched objects recorded for the end-of-epoch handover.
  Compressor(CompressorOptions options, bool hands_over);

  /// Per-object bookkeeping.
  struct Tracked {
    /// Open location event (kUnknownLocation = none open).
    LocationId open_location = kUnknownLocation;
    Epoch location_start = kNeverEpoch;
    /// Open containment event (kNoObject = none open).
    ObjectId open_container = kNoObject;
    Epoch containment_start = kNeverEpoch;
    /// Last known (reported) location; used as Missing's locationMissingFrom.
    LocationId last_known_location = kUnknownLocation;
    /// True after a Missing message until the object is seen again.
    bool missing_reported = false;
    /// True while the decompressor holds a *derived* stay for this object
    /// (reconstructed from its containment chain rather than an explicit
    /// StartLocation). While set, location_start tracks the derived stay's
    /// start. Mutually exclusive with an open explicit stay.
    bool derived_open = false;
    /// Index of this object's touched_ entry; kNotTouched when off the list.
    std::uint32_t touched_slot = kNotTouched;
    /// open_container / open_location as the last handover left them,
    /// recorded when the object is first touched after it. Valid while
    /// touched_slot is set.
    ObjectId handover_container = kNoObject;
    LocationId handover_location = kUnknownLocation;
  };
  static constexpr std::uint32_t kNotTouched = ~std::uint32_t{0};

  /// An entry of touched_. The pointer stays valid: unordered_map never
  /// moves its elements, and Retire takes an entry off the list before
  /// erasing it.
  struct TouchedEntry {
    ObjectId object;
    Tracked* tracked;
  };

  /// Level hook: true when location updates of this (contained) object must
  /// be suppressed.
  virtual bool SuppressContainedLocation(const Tracked& tracked) const = 0;

  void EmitLocationChange(Tracked& tracked, const ObjectStateEstimate& state,
                          Epoch epoch, EventStream* out);
  void EmitContainmentChange(Tracked& tracked, const ObjectStateEstimate& state,
                             Epoch epoch, EventStream* out);
  void CloseLocation(ObjectId object, Tracked& tracked, Epoch epoch,
                     EventStream* out);
  void CloseContainment(ObjectId object, Tracked& tracked, Epoch epoch,
                        EventStream* out);
  /// Emits a Missing singleton unless one is already pending or the object
  /// was never located (no location to be missing from).
  void EmitMissing(ObjectId object, Tracked& tracked, Epoch epoch,
                   EventStream* out);
  /// The open location of the top-level container of this object's open
  /// containment chain — the location decompression derives for suppressed
  /// children — or kUnknownLocation when the chain's root has no open stay.
  LocationId DerivedRootLocation(const Tracked& tracked) const;
  /// The location the decompressor's reconstructed stay for this object
  /// shows right now: the explicit open stay if one exists, otherwise the
  /// derived chain-root location of a suppressed object that has been
  /// located before. kUnknownLocation = no stay.
  LocationId EffectiveLocation(const Tracked& tracked) const;
  /// Closes the containments of this object's direct contents and resumes
  /// their suppressed stays explicitly (used by Retire).
  void ReleaseChildren(ObjectId object, Epoch epoch, EventStream* out);
  /// Copies a location transition of `parent` down to its transitive
  /// contents, mirroring the decompressor's propagation rules so level-1
  /// output and decompressed level-2 output stay event-equivalent.
  void PropagateLocation(ObjectId parent, LocationId location, Epoch epoch,
                         EventStream* out);
  /// Records that this object's entry is about to change, for the next
  /// handover. Call before the first mutation.
  void Touch(ObjectId object, Tracked& tracked) {
    if (!hands_over_ || tracked.touched_slot != kNotTouched) return;
    tracked.touched_slot = static_cast<std::uint32_t>(touched_.size());
    tracked.handover_container = tracked.open_container;
    tracked.handover_location = tracked.open_location;
    touched_.push_back(TouchedEntry{object, &tracked});
  }
  /// True when a touched object's containment link or open stay differs
  /// from what the last handover left: the only changes that can alter the
  /// handover predicate of its contents.
  static bool ChainChanged(const Tracked& tracked) {
    return tracked.open_container != tracked.handover_container ||
           tracked.open_location != tracked.handover_location;
  }
  /// Touches the transitive contents of a chain-changed object, except the
  /// subtrees of chain-changed contents, which their own walk covers.
  void TouchContents(ObjectId object);
  /// The handover predicate: an open explicit stay inside an open
  /// containment whose chain root's stay is at the same location.
  bool HandsOver(const Tracked& tracked) const {
    return tracked.open_location != kUnknownLocation &&
           SuppressContainedLocation(tracked) &&
           DerivedRootLocation(tracked) == tracked.open_location;
  }

  CompressorOptions options_;
  const bool hands_over_;
  CompressorObserver* observer_ = nullptr;
  std::unordered_map<ObjectId, Tracked> tracked_;
  /// Objects whose stay was suppress-closed at containment entry during the
  /// current epoch. The close bet on the chain root's stay surviving the
  /// epoch; CancelEpochChurn re-checks the bet once all reports are in.
  std::vector<ObjectId> suppress_closed_;
  /// Children of each open containment, kept sorted for deterministic
  /// propagation order.
  std::unordered_map<ObjectId, std::set<ObjectId>> children_;
  /// Objects whose entry changed since the last handover (level 2 only),
  /// each once. No other object can newly satisfy HandsOver: the predicate
  /// reads only the object's own entry and its chain's, so the handover
  /// tests just the closure of this list over children_. Bounded by the
  /// tracked objects.
  std::vector<TouchedEntry> touched_;
};

/// Level-1 range compression (Section V-B): every state change is emitted;
/// stays are collapsed into ranged events. Location and containment streams
/// are independent and individually queriable.
class RangeCompressor final : public Compressor {
 public:
  explicit RangeCompressor(CompressorOptions options = {})
      : Compressor(options, /*hands_over=*/false) {}

 protected:
  bool SuppressContainedLocation(const Tracked&) const override {
    return false;
  }
};

/// Level-2 compression (Section V-C): while an object's containment is
/// stable its location updates are omitted; only top-level containers carry
/// location events. When containment ends, location updates for the object
/// resume immediately.
class ContainmentCompressor final : public Compressor {
 public:
  explicit ContainmentCompressor(CompressorOptions options = {})
      : Compressor(options, /*hands_over=*/true) {}

 protected:
  bool SuppressContainedLocation(const Tracked& tracked) const override {
    return tracked.open_container != kNoObject;
  }
};

}  // namespace spire

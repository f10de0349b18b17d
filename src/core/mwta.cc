#include "core/mwta.h"

namespace pta {

namespace {

Result<TemporalRelation> ExtendTimestamps(const TemporalRelation& rel,
                                          const MwtaWindow& window) {
  if (window.preceding < 0 || window.following < 0) {
    return Status::InvalidArgument("window bounds must be non-negative");
  }
  TemporalRelation extended(rel.schema());
  extended.Reserve(rel.size());
  for (const Tuple& t : rel.tuples()) {
    // r holds in the window of t  <=>  r.tb - following <= t <= r.te +
    // preceding, so the shadow tuple is valid on exactly those instants.
    extended.InsertUnchecked(
        Tuple(t.values(), Interval(t.interval().begin - window.following,
                                   t.interval().end + window.preceding)));
  }
  return extended;
}

}  // namespace

Result<SequentialRelation> Mwta(const TemporalRelation& rel,
                                const ItaSpec& spec,
                                const MwtaWindow& window) {
  auto extended = ExtendTimestamps(rel, window);
  if (!extended.ok()) return extended.status();
  return Ita(*extended, spec);
}

Result<std::unique_ptr<SegmentSource>> MwtaStream(const TemporalRelation& rel,
                                                  const ItaSpec& spec,
                                                  const MwtaWindow& window) {
  auto extended = ExtendTimestamps(rel, window);
  if (!extended.ok()) return extended.status();
  // ItaStream copies everything it sweeps during Create(), so the extended
  // relation need not outlive it.
  auto stream = ItaStream::Create(*extended, spec);
  if (!stream.ok()) return stream.status();
  return std::unique_ptr<SegmentSource>(std::move(*stream));
}

}  // namespace pta

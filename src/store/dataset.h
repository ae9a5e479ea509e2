// Pipeline dataset <-> DRS column mapping. Three datasets mirror the
// paper's data layer (DESIGN.md §"Dataset store"):
//
//   "feed"    — the simulated RSDoS feed windows (telescope::RSDoSRecord),
//               one row per curated 5-minute record;
//   "daily" / "window" / "ns_seen"
//             — the OpenINTEL sweep aggregates (openintel::MeasurementStore
//               state): per-(NSSet, day) and per-(NSSet, window) aggregates
//               with their full Welford RTT state, plus the seen-NS sets
//               driving the previous-day join;
//   "events"  — the joined NSSet-attack events (core::NssetAttackEvent),
//               every field, lossless (unlike the events CSV).
//
// Id/timestamp columns are delta+varint encoded (sorted keys compress to
// ~1 byte per row); counts are varints; RTT/impact columns are raw f64
// bit patterns so round trips are bit-exact. Readers fan block decoding
// out across the exec worker pool and throw store::StoreError on any
// checksum or schema defect.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/join.h"
#include "openintel/storage.h"
#include "store/reader.h"
#include "store/writer.h"
#include "telescope/rsdos.h"

namespace ddos::store {

void write_feed_records(Writer& writer,
                        const std::vector<telescope::RSDoSRecord>& records);
std::vector<telescope::RSDoSRecord> read_feed_records(const Reader& reader);

void write_measurements(Writer& writer,
                        const openintel::MeasurementStore& store);
/// Restores into `store` (expected fresh); total_measurements is restored
/// from the row counts' generating run via scenario::save_run metadata,
/// not here.
void read_measurements(const Reader& reader,
                       openintel::MeasurementStore& store);

/// Decode one aggregate dataset ("daily" or "window") as (key, aggregate)
/// rows in file order, which is ascending key order.
std::vector<std::pair<std::uint64_t, openintel::Aggregate>> read_aggregates(
    const Reader& reader, const char* dataset);

void write_joined_events(Writer& writer,
                         const std::vector<core::NssetAttackEvent>& events);
std::vector<core::NssetAttackEvent> read_joined_events(const Reader& reader);

}  // namespace ddos::store

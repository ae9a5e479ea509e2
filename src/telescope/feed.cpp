#include "telescope/feed.h"

#include <algorithm>
#include <cstddef>
#include <istream>
#include <iterator>
#include <string>
#include <utility>

namespace ddos::telescope {

RSDoSFeed::RSDoSFeed(InferenceParams inference,
                     attack::BackscatterModelParams model)
    : inference_(inference), model_(model) {}

void RSDoSFeed::ingest(const attack::AttackSchedule& schedule,
                       const Darknet& darknet, std::uint64_t seed) {
  ingest_stream(
      schedule, darknet, seed,
      [](std::vector<RSDoSRecord>&& records) { return std::move(records); },
      [this](std::vector<RSDoSRecord>&& records) {
        records_.insert(records_.end(),
                        std::make_move_iterator(records.begin()),
                        std::make_move_iterator(records.end()));
      });
}

std::vector<RSDoSRecord> RSDoSFeed::observe(
    const std::vector<attack::AttackSpec>& attacks, std::size_t begin,
    std::size_t end, const netsim::Rng& base, const Darknet& darknet,
    std::uint64_t& windows_observed) const {
  const double fraction = darknet.ipv4_fraction();
  const std::uint32_t subnets = darknet.slash16_count();
  std::vector<RSDoSRecord> records;
  for (std::size_t i = begin; i < end; ++i) {
    const auto& atk = attacks[i];
    netsim::Rng rng = base.split(atk.id);
    for (netsim::WindowIndex w = atk.first_window(); w <= atk.last_window();
         ++w) {
      ++windows_observed;
      const auto bw = attack::observe_backscatter(atk, w, fraction, subnets,
                                                  model_, rng);
      if (passes_thresholds(bw, inference_)) records.push_back(to_record(bw));
    }
  }
  return records;
}

std::vector<RSDoSEvent> RSDoSFeed::events() const {
  return stitch_events(records_, inference_);
}

void RSDoSFeed::write_csv(std::ostream& out) const {
  out << RSDoSRecord::csv_header() << '\n';
  for (const auto& rec : records_) out << rec.to_csv_row() << '\n';
}

std::size_t RSDoSFeed::read_csv(std::istream& in) {
  std::size_t count = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line == RSDoSRecord::csv_header() || line.empty()) continue;
    if (const auto rec = RSDoSRecord::from_csv_row(line)) {
      records_.push_back(*rec);
      ++count;
    }
  }
  return count;
}

}  // namespace ddos::telescope

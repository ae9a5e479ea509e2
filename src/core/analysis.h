// Longitudinal analyses (§6) — pure functions over the telescope events
// and joined NSSet-attack events that produce the data behind every table
// and figure of the evaluation. Benches and examples format these; the
// logic lives here so tests can pin it down.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/join.h"
#include "dns/registry.h"
#include "telescope/darknet.h"
#include "telescope/rsdos.h"
#include "topology/as_registry.h"
#include "topology/prefix_table.h"
#include "util/histogram.h"

namespace ddos::core {

// ---------------------------------------------------------------- Table 3

struct MonthlyRow {
  int year = 0;
  int month = 0;
  std::uint64_t dns_attacks = 0;
  std::uint64_t other_attacks = 0;
  std::uint64_t dns_ips = 0;    // unique victim IPs that are nameservers
  std::uint64_t other_ips = 0;  // unique victim IPs that are not
  std::uint64_t total_attacks() const { return dns_attacks + other_attacks; }
  std::uint64_t total_ips() const { return dns_ips + other_ips; }
  double dns_attack_share() const {
    return total_attacks()
               ? static_cast<double>(dns_attacks) / total_attacks()
               : 0.0;
  }
};

/// Per-month split of telescope events into DNS-infrastructure attacks
/// (victim is a nameserver IP; open resolvers filtered) and the rest.
std::vector<MonthlyRow> monthly_summary(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry);

/// Incremental form of monthly_summary: add() one telescope event at a
/// time — in any order; month buckets and victim-IP sets are
/// order-independent — and finish() materialises the rows. The streaming
/// driver folds events as day batches retire instead of holding the full
/// vector; monthly_summary() itself is one fold pass, so both paths share
/// the accounting.
class MonthlySummaryFold {
 public:
  explicit MonthlySummaryFold(const dns::DnsRegistry& registry)
      : registry_(&registry) {}

  void add(const telescope::RSDoSEvent& ev);
  std::vector<MonthlyRow> finish() const;

 private:
  struct Acc {
    std::uint64_t dns_attacks = 0;
    std::uint64_t other_attacks = 0;
    std::unordered_set<netsim::IPv4Addr> dns_ips;
    std::unordered_set<netsim::IPv4Addr> other_ips;
  };
  const dns::DnsRegistry* registry_;
  std::map<std::pair<int, int>, Acc> by_month_;  // (year, month)
};

/// Column totals of Table 3.
MonthlyRow summary_totals(const std::vector<MonthlyRow>& rows);

/// Per-month rollup of joined events (month of the attack's first
/// window) — the stored-run counterpart of the Table 3 monthly view.
struct MonthlyJoinedRow {
  int year = 0;
  int month = 0;
  std::uint64_t events = 0;
  std::uint64_t impaired_10x = 0;
  std::uint64_t severe_100x = 0;
  std::uint64_t events_with_failures = 0;
};

std::vector<MonthlyJoinedRow> monthly_joined_summary(
    const std::vector<NssetAttackEvent>& events);

// ----------------------------------------------------------------- Fig 5

struct MonthlyAffectedDomains {
  int year = 0;
  int month = 0;
  std::uint64_t affected_domains = 0;   // distinct domains, union over month
  std::uint64_t largest_single_event = 0;  // biggest same-day blast radius
  std::uint64_t attacked_ns_ips = 0;
};

std::vector<MonthlyAffectedDomains> monthly_affected_domains(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry);

// ------------------------------------------------------------ Tables 4/5

struct TargetCount {
  std::string label;  // organisation (Table 4) or ip + type (Table 5)
  std::uint64_t attacks = 0;
};

/// Top-k organisations by attack-event count over DNS-related victims
/// (nameserver IPs and open resolvers appearing as NS targets, as in the
/// paper's Table 4 which includes Google/Cloudflare resolver IPs).
std::vector<TargetCount> top_attacked_orgs(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry, const topology::PrefixTable& routes,
    const topology::AsRegistry& orgs, std::size_t k);

struct IpTargetCount {
  netsim::IPv4Addr ip;
  std::uint64_t attacks = 0;
  std::string type;  // "open-resolver", "authoritative-ns"
};

std::vector<IpTargetCount> top_attacked_ips(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry, std::size_t k);

// ----------------------------------------------------------------- Fig 6

struct PortDistribution {
  std::uint64_t total = 0;
  std::uint64_t single_port = 0;      // 80.7% in the paper
  util::CategoryCounter by_protocol;  // among single-port attacks
  util::CategoryCounter tcp_ports;    // "80", "53", "443", "other"
  util::CategoryCounter udp_ports;
  double single_port_share() const {
    return total ? static_cast<double>(single_port) / total : 0.0;
  }
};

/// Protocol/port mix over DNS-infrastructure attack events (§6.2).
PortDistribution port_distribution(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry);

/// Collapse a port number to the paper's buckets: "80", "53", "443",
/// "other".
std::string port_bucket(std::uint16_t port);

// ---------------------------------------------------- Fig 7 and §6.3.1

struct FailureSummary {
  std::uint64_t events = 0;               // joined NSSet-attack events
  std::uint64_t events_with_failures = 0; // ~1% in the paper
  std::uint64_t timeouts = 0;
  std::uint64_t servfails = 0;
  util::CategoryCounter failed_event_ports;  // port mix of harmful attacks
  double failing_event_share() const {
    return events ? static_cast<double>(events_with_failures) / events : 0.0;
  }
  double timeout_share_of_failures() const {
    const std::uint64_t f = timeouts + servfails;
    return f ? static_cast<double>(timeouts) / f : 0.0;
  }
};

FailureSummary failure_summary(const std::vector<NssetAttackEvent>& events);

/// Incremental form of failure_summary: integer tallies and a port
/// counter, both order-independent, folded one joined event at a time.
class FailureFold {
 public:
  void add(const NssetAttackEvent& ev);
  FailureSummary finish() const { return acc_; }

 private:
  FailureSummary acc_;
};

/// Scatter points of Fig. 7: x = domains measured during the attack,
/// y = failure rate, colour = hosted-domain magnitude.
struct FailurePoint {
  std::uint32_t domains_measured = 0;
  double failure_rate = 0.0;
  std::uint64_t domains_hosted = 0;
  bool unicast_only = false;
};

std::vector<FailurePoint> failure_points(
    const std::vector<NssetAttackEvent>& events);

// ----------------------------------------------------------------- Fig 8

struct ImpactSummary {
  std::uint64_t events = 0;
  std::uint64_t impaired_10x = 0;  // >= 10-fold RTT increase (~5% in paper)
  std::uint64_t severe_100x = 0;   // >= 100-fold (~1/3 of the impaired)
  double impaired_share() const {
    return events ? static_cast<double>(impaired_10x) / events : 0.0;
  }
  double severe_share_of_impaired() const {
    return impaired_10x ? static_cast<double>(severe_100x) / impaired_10x
                        : 0.0;
  }
};

ImpactSummary impact_summary(const std::vector<NssetAttackEvent>& events);

/// Incremental form of impact_summary: pure threshold counters.
class ImpactFold {
 public:
  void add(const NssetAttackEvent& ev);
  ImpactSummary finish() const { return acc_; }

 private:
  ImpactSummary acc_;
};

struct ImpactPoint {
  std::uint64_t domains_hosted = 0;
  double peak_impact = 0.0;
  bool anycast = false;  // Full anycast per the census
};

std::vector<ImpactPoint> impact_points(
    const std::vector<NssetAttackEvent>& events);

// ------------------------------------------------------------- Figs 9/10

struct CorrelationSeries {
  std::vector<double> x;
  std::vector<double> y;
  double pearson = 0.0;
  double spearman = 0.0;
  std::size_t n() const { return x.size(); }
};

/// Fig. 9: x = inferred attack intensity (telescope max ppm extrapolated
/// to victim pps through the darknet fraction), y = peak Impact_on_RTT.
CorrelationSeries intensity_impact_series(
    const std::vector<NssetAttackEvent>& events,
    const telescope::Darknet& darknet);

/// Fig. 10: x = attack duration (seconds), y = peak Impact_on_RTT.
CorrelationSeries duration_impact_series(
    const std::vector<NssetAttackEvent>& events);

/// Histogram of event durations in minutes (paper: bimodal, 15 and 60).
util::CategoryCounter duration_mode_histogram(
    const std::vector<NssetAttackEvent>& events);

// ------------------------------------------------------------ Figs 11-13

struct GroupImpact {
  std::string group;
  std::uint64_t events = 0;
  double median_impact = 0.0;
  double p90_impact = 0.0;
  double max_impact = 0.0;
  std::uint64_t impaired_10x = 0;
  std::uint64_t severe_100x = 0;
  std::uint64_t events_with_failures = 0;
  std::uint64_t complete_failures = 0;
};

/// Fig. 11 — by anycast class (unicast / partial / full).
std::vector<GroupImpact> impact_by_anycast(
    const std::vector<NssetAttackEvent>& events);

/// Fig. 12 — by AS diversity (1 / 2 / 3+ distinct origin ASNs).
std::vector<GroupImpact> impact_by_as_diversity(
    const std::vector<NssetAttackEvent>& events);

/// Fig. 13 — by /24 prefix diversity (1 / 2 / 3+ distinct /24s).
std::vector<GroupImpact> impact_by_prefix_diversity(
    const std::vector<NssetAttackEvent>& events);

/// §6.6.2/§6.6.3 attribution: among complete-failure events, the share on
/// single-ASN and single-/24 NSSets (81% and 60% in the paper).
struct FailureAttribution {
  std::uint64_t complete_failures = 0;
  std::uint64_t single_asn = 0;
  std::uint64_t single_prefix = 0;
  std::uint64_t unicast = 0;
  double single_asn_share() const {
    return complete_failures
               ? static_cast<double>(single_asn) / complete_failures
               : 0.0;
  }
  double single_prefix_share() const {
    return complete_failures
               ? static_cast<double>(single_prefix) / complete_failures
               : 0.0;
  }
  double unicast_share() const {
    return complete_failures
               ? static_cast<double>(unicast) / complete_failures
               : 0.0;
  }
};

FailureAttribution failure_attribution(
    const std::vector<NssetAttackEvent>& events);

// ------------------------------------------------------------ TLD slicing

/// Affected-domain counts by TLD — the §5.1 "two-thirds of the affected
/// domains were .nl" style breakdown, over the domains of the NSSets the
/// joined events touched.
struct TldBreakdownRow {
  std::string tld;
  std::uint64_t affected_domains = 0;
};

std::vector<TldBreakdownRow> tld_breakdown(
    const std::vector<NssetAttackEvent>& events,
    const dns::DnsRegistry& registry, std::size_t top_k = 10);

// ---------------------------------------------------------------- Table 6

struct CompanyImpact {
  std::string org;
  double max_impact = 0.0;
};

/// Top-k organisations by maximum observed Impact_on_RTT (Table 6).
std::vector<CompanyImpact> top_companies_by_impact(
    const std::vector<NssetAttackEvent>& events, std::size_t k);

}  // namespace ddos::core

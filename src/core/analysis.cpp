#include "core/analysis.h"

#include <algorithm>

#include "core/impact.h"
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "obs/obs.h"
#include "util/stats.h"

namespace ddos::core {

namespace {

struct YearMonth {
  int year = 0;
  int month = 0;
  auto operator<=>(const YearMonth&) const = default;
};

YearMonth ym_of(const telescope::RSDoSEvent& ev) {
  int year = 0, month = 0, dom = 0;
  netsim::day_to_ymd(ev.start_time().day(), year, month, dom);
  return YearMonth{year, month};
}

}  // namespace

void MonthlySummaryFold::add(const telescope::RSDoSEvent& ev) {
  const YearMonth ym = ym_of(ev);
  Acc& acc = by_month_[{ym.year, ym.month}];
  // Table 3 counts every attack on an IP appearing in NS records as a DNS
  // attack; open resolvers are filtered later, in the impact join (the
  // paper surfaces them in Table 5 first).
  if (registry_->is_ns_ip(ev.victim)) {
    ++acc.dns_attacks;
    acc.dns_ips.insert(ev.victim);
  } else {
    ++acc.other_attacks;
    acc.other_ips.insert(ev.victim);
  }
}

std::vector<MonthlyRow> MonthlySummaryFold::finish() const {
  std::vector<MonthlyRow> rows;
  rows.reserve(by_month_.size());
  for (const auto& [ym, acc] : by_month_) {
    MonthlyRow row;
    row.year = ym.first;
    row.month = ym.second;
    row.dns_attacks = acc.dns_attacks;
    row.other_attacks = acc.other_attacks;
    row.dns_ips = acc.dns_ips.size();
    row.other_ips = acc.other_ips.size();
    rows.push_back(row);
  }
  return rows;
}

std::vector<MonthlyRow> monthly_summary(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry) {
  obs::ScopedSpan span(obs::installed_tracer(), "analysis.monthly_summary");
  span.set_items(events.size());
  // One pass of the incremental fold: buckets and victim-IP sets are
  // order-independent, so one serial fold over ~thousands of events costs
  // less than sharding ever saved, and the streaming driver's incremental
  // path exercises the identical accounting.
  MonthlySummaryFold fold(registry);
  for (const auto& ev : events) fold.add(ev);
  return fold.finish();
}

std::vector<MonthlyJoinedRow> monthly_joined_summary(
    const std::vector<NssetAttackEvent>& events) {
  std::map<YearMonth, MonthlyJoinedRow> by_month;
  for (const auto& ev : events) {
    const YearMonth ym = ym_of(ev.rsdos);
    MonthlyJoinedRow& row = by_month[ym];
    row.year = ym.year;
    row.month = ym.month;
    ++row.events;
    if (ev.peak_impact >= kImpairedThreshold) ++row.impaired_10x;
    if (ev.peak_impact >= kSevereThreshold) ++row.severe_100x;
    if (ev.any_failure()) ++row.events_with_failures;
  }
  std::vector<MonthlyJoinedRow> rows;
  rows.reserve(by_month.size());
  for (const auto& [ym, row] : by_month) rows.push_back(row);
  return rows;
}

MonthlyRow summary_totals(const std::vector<MonthlyRow>& rows) {
  MonthlyRow total;
  for (const auto& r : rows) {
    total.dns_attacks += r.dns_attacks;
    total.other_attacks += r.other_attacks;
    total.dns_ips += r.dns_ips;
    total.other_ips += r.other_ips;
  }
  return total;
}

std::vector<MonthlyAffectedDomains> monthly_affected_domains(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry) {
  struct Acc {
    std::unordered_set<dns::NssetId> nssets;
    std::unordered_set<netsim::IPv4Addr> ns_ips;
    // Per-day affected NSSets: a coordinated multi-nameserver campaign
    // (the Fig. 5 mega-events) lands on one day, so the largest same-day
    // blast radius is the figure's peak statistic.
    std::map<netsim::DayIndex, std::unordered_set<dns::NssetId>> by_day;
  };
  std::map<YearMonth, Acc> by_month;
  for (const auto& ev : events) {
    if (!registry.is_ns_ip(ev.victim) || registry.is_open_resolver(ev.victim))
      continue;
    Acc& acc = by_month[ym_of(ev)];
    acc.ns_ips.insert(ev.victim);
    auto& day_set = acc.by_day[ev.start_time().day()];
    for (const dns::NssetId nsset : registry.nssets_containing(ev.victim)) {
      acc.nssets.insert(nsset);
      day_set.insert(nsset);
    }
  }
  std::vector<MonthlyAffectedDomains> rows;
  rows.reserve(by_month.size());
  for (const auto& [ym, acc] : by_month) {
    MonthlyAffectedDomains row;
    row.year = ym.year;
    row.month = ym.month;
    // Distinct domains: NSSets partition domains, so summing NSSet sizes
    // over the distinct affected NSSets is an exact distinct-domain count.
    for (const dns::NssetId nsset : acc.nssets)
      row.affected_domains += registry.domains_of_nsset(nsset).size();
    for (const auto& [day, nssets] : acc.by_day) {
      std::uint64_t blast = 0;
      for (const dns::NssetId nsset : nssets)
        blast += registry.domains_of_nsset(nsset).size();
      row.largest_single_event = std::max(row.largest_single_event, blast);
    }
    row.attacked_ns_ips = acc.ns_ips.size();
    rows.push_back(row);
  }
  return rows;
}

std::vector<TargetCount> top_attacked_orgs(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry, const topology::PrefixTable& routes,
    const topology::AsRegistry& orgs, std::size_t k) {
  util::CategoryCounter counter;
  for (const auto& ev : events) {
    if (!registry.is_ns_ip(ev.victim)) continue;  // resolvers stay in: Table 4
    const topology::Asn asn = routes.origin_of(ev.victim);
    if (asn == 0) continue;
    std::string org = orgs.org_of(asn);
    if (org.empty()) org = "AS" + std::to_string(asn);
    counter.add(org);
  }
  std::vector<TargetCount> out;
  for (const auto& [org, n] : counter.top(k))
    out.push_back(TargetCount{org, n});
  return out;
}

std::vector<IpTargetCount> top_attacked_ips(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry, std::size_t k) {
  std::unordered_map<netsim::IPv4Addr, std::uint64_t> counter;
  for (const auto& ev : events) {
    if (!registry.is_ns_ip(ev.victim)) continue;
    ++counter[ev.victim];
  }
  std::vector<IpTargetCount> all;
  all.reserve(counter.size());
  for (const auto& [ip, n] : counter) {
    IpTargetCount row;
    row.ip = ip;
    row.attacks = n;
    row.type =
        registry.is_open_resolver(ip) ? "open-resolver" : "authoritative-ns";
    all.push_back(row);
  }
  std::sort(all.begin(), all.end(),
            [](const IpTargetCount& a, const IpTargetCount& b) {
              if (a.attacks != b.attacks) return a.attacks > b.attacks;
              return a.ip < b.ip;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

std::string port_bucket(std::uint16_t port) {
  switch (port) {
    case 80: return "80";
    case 53: return "53";
    case 443: return "443";
    default: return "other";
  }
}

PortDistribution port_distribution(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry) {
  PortDistribution dist;
  for (const auto& ev : events) {
    if (!registry.is_ns_ip(ev.victim) || registry.is_open_resolver(ev.victim))
      continue;
    ++dist.total;
    if (ev.max_unique_ports > 1) continue;
    ++dist.single_port;
    dist.by_protocol.add(attack::to_string(ev.protocol));
    if (ev.protocol == attack::Protocol::TCP) {
      dist.tcp_ports.add(port_bucket(ev.first_port));
    } else if (ev.protocol == attack::Protocol::UDP) {
      dist.udp_ports.add(port_bucket(ev.first_port));
    }
  }
  return dist;
}

void FailureFold::add(const NssetAttackEvent& ev) {
  ++acc_.events;
  acc_.timeouts += ev.timeouts;
  acc_.servfails += ev.servfails;
  if (ev.any_failure()) {
    ++acc_.events_with_failures;
    acc_.failed_event_ports.add(port_bucket(ev.rsdos.first_port));
  }
}

FailureSummary failure_summary(const std::vector<NssetAttackEvent>& events) {
  obs::ScopedSpan span(obs::installed_tracer(), "analysis.failure_summary");
  span.set_items(events.size());
  FailureFold fold;
  for (const auto& ev : events) fold.add(ev);
  return fold.finish();
}

std::vector<FailurePoint> failure_points(
    const std::vector<NssetAttackEvent>& events) {
  std::vector<FailurePoint> pts;
  pts.reserve(events.size());
  for (const auto& ev : events) {
    if (!ev.any_failure()) continue;
    FailurePoint p;
    p.domains_measured = ev.domains_measured;
    p.failure_rate = ev.failure_rate;
    p.domains_hosted = ev.domains_hosted;
    p.unicast_only = ev.resilience.anycast_class == anycast::AnycastClass::None;
    pts.push_back(p);
  }
  return pts;
}

void ImpactFold::add(const NssetAttackEvent& ev) {
  ++acc_.events;
  if (ev.peak_impact >= kImpairedThreshold) ++acc_.impaired_10x;
  if (ev.peak_impact >= kSevereThreshold) ++acc_.severe_100x;
}

ImpactSummary impact_summary(const std::vector<NssetAttackEvent>& events) {
  obs::ScopedSpan span(obs::installed_tracer(), "analysis.impact_summary");
  span.set_items(events.size());
  ImpactFold fold;
  for (const auto& ev : events) fold.add(ev);
  return fold.finish();
}

std::vector<ImpactPoint> impact_points(
    const std::vector<NssetAttackEvent>& events) {
  std::vector<ImpactPoint> pts;
  pts.reserve(events.size());
  for (const auto& ev : events) {
    ImpactPoint p;
    p.domains_hosted = ev.domains_hosted;
    p.peak_impact = ev.peak_impact;
    p.anycast = ev.resilience.anycast_class == anycast::AnycastClass::Full;
    pts.push_back(p);
  }
  return pts;
}

CorrelationSeries intensity_impact_series(
    const std::vector<NssetAttackEvent>& events,
    const telescope::Darknet& darknet) {
  CorrelationSeries s;
  for (const auto& ev : events) {
    if (ev.peak_impact <= 0.0) continue;
    s.x.push_back(ev.rsdos.max_ppm * darknet.extrapolation_factor() / 60.0);
    s.y.push_back(ev.peak_impact);
  }
  s.pearson = util::pearson(s.x, s.y);
  s.spearman = util::spearman(s.x, s.y);
  return s;
}

CorrelationSeries duration_impact_series(
    const std::vector<NssetAttackEvent>& events) {
  CorrelationSeries s;
  for (const auto& ev : events) {
    if (ev.peak_impact <= 0.0) continue;
    s.x.push_back(static_cast<double>(ev.duration_s()));
    s.y.push_back(ev.peak_impact);
  }
  s.pearson = util::pearson(s.x, s.y);
  s.spearman = util::spearman(s.x, s.y);
  return s;
}

util::CategoryCounter duration_mode_histogram(
    const std::vector<NssetAttackEvent>& events) {
  util::CategoryCounter counter;
  for (const auto& ev : events) {
    const std::int64_t minutes = ev.duration_s() / 60;
    std::string bucket;
    if (minutes <= 15) bucket = "<=15m";
    else if (minutes <= 30) bucket = "15-30m";
    else if (minutes <= 60) bucket = "30-60m";
    else if (minutes <= 180) bucket = "1-3h";
    else if (minutes <= 720) bucket = "3-12h";
    else bucket = ">12h";
    counter.add(bucket);
  }
  return counter;
}

namespace {

GroupImpact summarize_group(const std::string& name,
                            const std::vector<const NssetAttackEvent*>& evs) {
  GroupImpact g;
  g.group = name;
  g.events = evs.size();
  std::vector<double> impacts;
  impacts.reserve(evs.size());
  for (const auto* ev : evs) {
    impacts.push_back(ev->peak_impact);
    if (ev->peak_impact >= kImpairedThreshold) ++g.impaired_10x;
    if (ev->peak_impact >= kSevereThreshold) ++g.severe_100x;
    if (ev->any_failure()) ++g.events_with_failures;
    if (ev->complete_failure()) ++g.complete_failures;
  }
  g.median_impact = util::median(impacts);
  g.p90_impact = util::percentile(impacts, 90.0);
  g.max_impact = util::max_of(impacts);
  return g;
}

template <typename KeyFn>
std::vector<GroupImpact> group_by(
    const std::vector<NssetAttackEvent>& events,
    const std::vector<std::string>& order, KeyFn&& key_of) {
  std::map<std::string, std::vector<const NssetAttackEvent*>> groups;
  for (const auto& ev : events) groups[key_of(ev)].push_back(&ev);
  std::vector<GroupImpact> out;
  for (const auto& name : order) {
    const auto it = groups.find(name);
    out.push_back(summarize_group(
        name, it == groups.end()
                  ? std::vector<const NssetAttackEvent*>{}
                  : it->second));
  }
  return out;
}

}  // namespace

std::vector<GroupImpact> impact_by_anycast(
    const std::vector<NssetAttackEvent>& events) {
  return group_by(events, {"unicast", "partial-anycast", "anycast"},
                  [](const NssetAttackEvent& ev) {
                    return std::string(
                        anycast::to_string(ev.resilience.anycast_class));
                  });
}

std::vector<GroupImpact> impact_by_as_diversity(
    const std::vector<NssetAttackEvent>& events) {
  return group_by(events, {"1 ASN", "2 ASNs", "3+ ASNs"},
                  [](const NssetAttackEvent& ev) -> std::string {
                    const auto n = ev.resilience.distinct_asns;
                    if (n <= 1) return "1 ASN";
                    if (n == 2) return "2 ASNs";
                    return "3+ ASNs";
                  });
}

std::vector<GroupImpact> impact_by_prefix_diversity(
    const std::vector<NssetAttackEvent>& events) {
  return group_by(events, {"1 /24", "2 /24s", "3+ /24s"},
                  [](const NssetAttackEvent& ev) -> std::string {
                    const auto n = ev.resilience.distinct_slash24;
                    if (n <= 1) return "1 /24";
                    if (n == 2) return "2 /24s";
                    return "3+ /24s";
                  });
}

FailureAttribution failure_attribution(
    const std::vector<NssetAttackEvent>& events) {
  FailureAttribution attr;
  for (const auto& ev : events) {
    if (!ev.complete_failure()) continue;
    ++attr.complete_failures;
    if (ev.resilience.distinct_asns <= 1) ++attr.single_asn;
    if (ev.resilience.distinct_slash24 <= 1) ++attr.single_prefix;
    if (ev.resilience.anycast_class == anycast::AnycastClass::None)
      ++attr.unicast;
  }
  return attr;
}

std::vector<TldBreakdownRow> tld_breakdown(
    const std::vector<NssetAttackEvent>& events,
    const dns::DnsRegistry& registry, std::size_t top_k) {
  std::unordered_set<dns::NssetId> seen;
  util::CategoryCounter counter;
  for (const auto& ev : events) {
    if (!seen.insert(ev.nsset).second) continue;  // count each NSSet once
    for (const dns::DomainId d : registry.domains_of_nsset(ev.nsset)) {
      counter.add(std::string(registry.domain_name(d).tld()));
    }
  }
  std::vector<TldBreakdownRow> rows;
  for (const auto& [tld, count] : counter.top(top_k)) {
    rows.push_back(TldBreakdownRow{tld, count});
  }
  return rows;
}

std::vector<CompanyImpact> top_companies_by_impact(
    const std::vector<NssetAttackEvent>& events, std::size_t k) {
  std::unordered_map<std::string, double> best;
  for (const auto& ev : events) {
    if (ev.resilience.org.empty()) continue;
    double& cur = best[ev.resilience.org];
    cur = std::max(cur, ev.peak_impact);
  }
  std::vector<CompanyImpact> all;
  all.reserve(best.size());
  for (const auto& [org, impact] : best)
    all.push_back(CompanyImpact{org, impact});
  std::sort(all.begin(), all.end(),
            [](const CompanyImpact& a, const CompanyImpact& b) {
              if (a.max_impact != b.max_impact)
                return a.max_impact > b.max_impact;
              return a.org < b.org;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace ddos::core

// Construction of any policy by name — the front door for the CLI, benches,
// and downstream users.
//
// Every constructible policy lives in one registry row (policy_registry()):
// canonical head, accepted aliases, usage string, one-line summary, and
// whether it reads the live fabric backlog. make_policy resolves a spec
// against that table — there is no separate if-chain to drift out of sync
// with the `aptsim policies` listing or the --policies parser — and rejects
// unknown heads with a did-you-mean suggestion (closest registered head by
// edit distance).
//
// Spec grammar (case-insensitive, whitespace-trimmed): "head" or
// "head:arg", e.g.
//   "apt"            APT with default alpha 4
//   "apt:2.5"        APT with alpha 2.5
//   "apt-c:2.5"      backlog-aware APT-C (transfer cost includes predicted
//                    link queueing from the live fabric state)
//   "apt-q"          tail-aware APT-Q (ranks by the p95 cost quantile under
//                    the run's noise spec; == APT-C when noise is off)
//   "ag" / "ag:recent" / "ag-net"   Adaptive Greedy (comm-blind / Eq. (2)
//                    estimator / fabric-backlog-aware)
//   "met" "spn" "ss" "olb" "minmin" "maxmin" "sufferage" "heft" "peft"
//   "random" / "random:1234" (seed)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/policy.hpp"

namespace apt::core {

/// One registry row: everything the CLI and the tests need to know about a
/// constructible policy without building it.
struct PolicyInfo {
  std::string head;                  ///< canonical spec head, e.g. "apt-c"
  std::vector<std::string> aliases;  ///< alternate heads, e.g. {"aptc"}
  std::string usage;                 ///< display form, e.g. "apt-c[:alpha]"
  std::string summary;               ///< one-line description
  /// True when the policy reads the live fabric backlog
  /// (TransferEstimate::link_queueing_ms) — the ablation exporters group
  /// comm-aware vs comm-blind columns by this flag.
  bool comm_aware = false;
};

/// The full registry, in display order. Stable within a process.
const std::vector<PolicyInfo>& policy_registry();

/// The registry row a spec would resolve against (head or alias, the
/// optional ":arg" ignored), or nullptr for unknown heads — the cheap
/// metadata lookup behind the ablation exporters, which must not construct
/// a policy per CSV row.
const PolicyInfo* find_policy_info(const std::string& spec);

/// Creates the policy described by `spec`; throws std::invalid_argument on
/// unknown heads (with a did-you-mean suggestion when a registered head is
/// within edit distance 2) or malformed parameters.
std::unique_ptr<sim::Policy> make_policy(const std::string& spec);

/// All specs understood by make_policy (for --help and tests): every
/// canonical head, parameterised forms as "head:<param>", plus concrete
/// advertised variants such as "ag:recent". Derived from the registry.
std::vector<std::string> known_policy_specs();

/// Splits a comma-separated --policies list, trims each entry, drops
/// empties, and validates every spec by constructing it once — so a typo
/// fails at parse time with make_policy's did-you-mean message instead of
/// deep inside a sweep. Returns the validated specs in input order.
std::vector<std::string> parse_policy_list(const std::string& csv);

/// The thesis's seven-policy comparison set (APT at the given alpha first,
/// then MET, SPN, SS, AG, HEFT, PEFT).
std::vector<std::unique_ptr<sim::Policy>> paper_policy_set(double apt_alpha);

}  // namespace apt::core

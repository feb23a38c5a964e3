/**
 * @file
 * The canonical figure sweeps: one registered SweepSpec per paper
 * figure (fig03..fig15 plus the replacement ablation) and the
 * non-paper demos. `bench/a4bench <name>` runs any registered sweep
 * (or a --file-loaded one) on the shared bench CLI.
 */

#ifndef A4_HARNESS_FIGURES_HH
#define A4_HARNESS_FIGURES_HH

#include <string>
#include <vector>

#include "harness/spec.hh"
#include "harness/sweep.hh"

namespace a4
{

/** A named, ready-to-run sweep. */
struct RegisteredSweep
{
    std::string name;
    std::string description;
    SweepSpec spec;
};

/** All registered sweeps: the paper's figures plus the demos. */
const std::vector<RegisteredSweep> &sweepRegistry();

/** Lookup by name; nullptr when absent. */
const RegisteredSweep *findSweep(const std::string &name);

/** "kind+2x kind+..." summary of a scenario's workload mix. */
std::string workloadKindSummary(const ScenarioSpec &spec);

/** @name Listing rows for the shared --list formatter. @{ */
std::vector<RegistryLine> sweepListing();
std::vector<RegistryLine> scenarioListing();
/** @} */

} // namespace a4

#endif // A4_HARNESS_FIGURES_HH

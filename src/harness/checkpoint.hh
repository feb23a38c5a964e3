/**
 * @file
 * Content-addressed warm-up checkpoint store.
 *
 * A sweep's points overwhelmingly share their warm-up: the same base
 * scenario warmed for the same window, diverging only at the
 * measurement knob. With $A4_CKPT_DIR set, runSpecWithWindows()
 * checkpoints the full simulation state — Engine event queue, cache
 * arrays, RDT/DDIO registers, device queues, workload actors, the A4
 * daemon — at the exact warm-up boundary and restores it on the next
 * run of an identical (spec, warm-up) pair, skipping the warm-up
 * entirely. Restores happen inside the Dispatcher's fork()-per-point
 * children too, so one cold point warms the whole grid.
 *
 * Keying is content-addressed and conservative: the key text is the
 * canonical serialized spec (minus the measure window, which only
 * affects post-boundary behaviour), the *resolved* warm-up tick
 * count, the resolved values of every environment knob that shapes
 * pre-boundary state ($A4_SEED, $A4_NIC_BURST, $A4_NVME_LAZY), the
 * snapshot format version, and the build tag — a hash of the running
 * executable, so images are per executable (a4bench and a4sim do not
 * share a store) and a rebuilt simulator never restores a stale
 * image. The image file embeds the full key text and a payload
 * checksum; any mismatch — truncated file, bit rot, hash collision —
 * falls back to a cold run with a single stderr warning. Restored
 * runs are bit-identical to cold runs (pinned by tests/harness); the
 * store is purely a wall-clock optimisation.
 */

#ifndef A4_HARNESS_CHECKPOINT_HH
#define A4_HARNESS_CHECKPOINT_HH

#include <string>

#include "sim/types.hh"

namespace a4
{

struct ScenarioSpec;
class Testbed;
class A4Manager;

/** $A4_CKPT_DIR; empty = checkpointing disabled. */
std::string checkpointDir();

/**
 * Hex FNV-1a-64 of the running executable (/proc/self/exe), computed
 * once per process. Empty — after one warning — when the file cannot
 * be read; checkpointing then stays off and every run is cold.
 */
std::string buildTag();

/**
 * The content-address key text of @p spec's warm-up image (see the
 * file comment for what it covers). @p warmup is the resolved
 * warm-up window in ticks.
 */
std::string checkpointKeyText(const ScenarioSpec &spec, Tick warmup);

/** Image path for @p key_text inside @p dir (FNV-1a-64 filename). */
std::string checkpointPath(const std::string &dir,
                           const std::string &key_text);

/**
 * Serialize @p bed (and @p mgr when the scheme runs the A4 daemon)
 * at the warm-up boundary. Throws SnapshotError when any component
 * refuses (e.g. an untagged in-flight I/O completion).
 */
std::string saveWarmupImage(Testbed &bed, const A4Manager *mgr);

/**
 * Restore a payload produced by saveWarmupImage() into a freshly
 * constructed, identically configured @p bed / @p mgr whose actors
 * were never start()ed. Throws SnapshotError on any mismatch.
 */
void restoreWarmupImage(const std::string &payload, Testbed &bed,
                        A4Manager *mgr);

/**
 * Load the image at @p path into @p payload_out. Returns false —
 * warning once per path on anything but a missing file — when the
 * file is absent, truncated, checksum-corrupt, or keyed for a
 * different @p key_text.
 */
bool loadWarmupImage(const std::string &path,
                     const std::string &key_text,
                     std::string &payload_out);

/**
 * Atomically (write-temp + rename) store @p payload under @p path.
 * Best effort: failures warn once per path and are otherwise
 * ignored — the next run simply stays cold.
 */
void storeWarmupImage(const std::string &path,
                      const std::string &key_text,
                      const std::string &payload);

} // namespace a4

#endif // A4_HARNESS_CHECKPOINT_HH

#include "workload/fio.hh"

#include "sim/log.hh"

namespace a4
{

FioWorkload::FioWorkload(std::string name, WorkloadId id,
                         std::vector<CoreId> cores_in, Engine &eng_,
                         CacheSystem &cache_, AddressMap &addrs,
                         SsdArray &ssd_, const FioConfig &config)
    : Workload(std::move(name), id, std::move(cores_in)), eng(eng_),
      cache(cache_), ssd(ssd_), cfg(config), rng(mixSeed(cfg.seed))
{
    if (cores().size() != cfg.num_jobs)
        fatal("FioWorkload: core count must equal num_jobs");
    if (cfg.block_bytes < kLineBytes)
        fatal("FioWorkload: block below one line");

    jobs.resize(cfg.num_jobs);
    for (unsigned j = 0; j < cfg.num_jobs; ++j) {
        jobs[j].core = cores()[j];
        jobs[j].buffers.resize(cfg.iodepth);
        for (unsigned b = 0; b < cfg.iodepth; ++b) {
            jobs[j].buffers[b].base =
                addrs.alloc(cfg.block_bytes,
                            sformat("%s.j%u.buf%u",
                                    this->name().c_str(), j, b));
        }
        jobs[j].pump_ev.init(eng, [this, j] {
            jobs[j].pump_scheduled = false;
            consumeNext(j);
        });
        jobs[j].consume_done_ev.init(eng, [this, j] {
            onConsumeDone(j);
        });
    }
}

void
FioWorkload::start()
{
    if (active_)
        return;
    active_ = true;
    for (unsigned j = 0; j < cfg.num_jobs; ++j) {
        for (unsigned b = 0; b < cfg.iodepth; ++b)
            submitRead(eng.now(), j, b);
        schedulePump(j, cfg.idle_poll_ns);
    }
}

void
FioWorkload::submitRead(Tick now, unsigned job, unsigned buf)
{
    if (!active_)
        return;
    Job &j = jobs[job];
    j.buffers[buf].submit_time = now;
    ssd.submitRead(now, j.buffers[buf].base, cfg.block_bytes, id(),
                   {j.core},
                   [this, job, buf](Tick done_at) {
                       onReadComplete(done_at, job, buf);
                   });
}

void
FioWorkload::onReadComplete(Tick done_at, unsigned job, unsigned buf)
{
    // Virtual time: done_at is the completion tick, which can be
    // earlier than eng.now() when the completion is applied lazily by
    // the observation barrier.
    Job &j = jobs[job];
    j.buffers[buf].dma_done = done_at;
    read_lat.record(static_cast<double>(done_at -
                                        j.buffers[buf].submit_time));
    if (cfg.consume) {
        j.completed.push_back(buf);
        if (!j.consuming)
            schedulePump(job, 1);
    } else {
        finishBlock(done_at, job, buf);
    }
}

void
FioWorkload::schedulePump(unsigned job, Tick delay)
{
    // At most one pending pump event per job: completions arriving
    // while idle must not spawn parallel consume chains.
    Job &j = jobs[job];
    if (j.pump_scheduled || j.consuming)
        return;
    j.pump_scheduled = true;
    j.pump_ev.arm(delay);
}

void
FioWorkload::consumeNext(unsigned job)
{
    if (!active_)
        return;
    Job &j = jobs[job];
    if (j.consuming)
        return; // a continuation chain is already live
    // Make lazily-delivered completions visible before the empty
    // check (same contract as Nic::pop): a poll observes exactly the
    // completed set a per-completion event schedule would have built.
    cache.drainDeferred(eng.now());
    if (j.completed.empty()) {
        schedulePump(job, cfg.idle_poll_ns);
        return;
    }
    j.consuming = true;
    unsigned buf = j.completed.front();
    j.completed.pop_front();
    j.consume_buf = buf;

    // Regex-scan every line of the block (brought through the MLC).
    const Addr base = j.buffers[buf].base;
    const std::uint64_t lines = linesIn(cfg.block_bytes);
    double svc = 0.0;
    cache.coreRun(eng.now(), j.core, base, lines, id(), false,
                  [&](const AccessResult &r) {
                      svc += r.latency_ns / cfg.mlp + cfg.regex_ns_per_line;
                  });
    regex_lat.record(svc);
    retire(lines * 6.0, svc, 2.3);

    j.consume_done_ev.arm(static_cast<Tick>(svc) + 1);
}

void
FioWorkload::onConsumeDone(unsigned job)
{
    // Apply lazily-pending completions before booking this block and
    // resubmitting: a per-completion event schedule ran same-tick
    // completions first (they were scheduled a flash-overhead
    // earlier), and the relative order decides the SSD's link
    // schedule for queued commands.
    cache.drainDeferred(eng.now());
    Job &j = jobs[job];
    const unsigned buf = j.consume_buf;
    ops_.inc();
    bytes_.add(cfg.block_bytes);
    lat_.record(static_cast<double>(eng.now() -
                                    j.buffers[buf].submit_time));
    finishBlock(eng.now(), job, buf);
    j.consuming = false;
    consumeNext(job);
}

void
FioWorkload::finishBlock(Tick now, unsigned job, unsigned buf)
{
    if (!active_)
        return;
    Job &j = jobs[job];
    if (cfg.write_mix > 0.0 && rng.chance(cfg.write_mix)) {
        Tick t0 = now;
        ssd.submitWrite(now, j.buffers[buf].base, cfg.block_bytes,
                        id(), {j.core},
                        [this, job, buf, t0](Tick t) {
                            write_lat.record(
                                static_cast<double>(t - t0));
                            submitRead(t, job, buf);
                        });
    } else {
        submitRead(now, job, buf);
    }
}

} // namespace a4

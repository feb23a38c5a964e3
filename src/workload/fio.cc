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

    // Snapshot support: every command we submit is tagged (kind,
    // job<<32|buf, write-submit tick), and this resolver rebuilds the
    // matching completion closure on restore.
    ssd.registerResolver(this->id(),
                         [this](const IoTag &tag) -> SsdArray::Completion {
        const auto job = static_cast<unsigned>(tag.b >> 32);
        const auto buf = static_cast<unsigned>(tag.b & 0xFFFFFFFFu);
        if (job >= jobs.size() || buf >= cfg.iodepth)
            return nullptr;
        if (tag.a == 0)
            return [this, job, buf](Tick done_at) {
                onReadComplete(done_at, job, buf);
            };
        if (tag.a == 1) {
            const Tick t0 = tag.c;
            return [this, job, buf, t0](Tick t) {
                write_lat.record(static_cast<double>(t - t0));
                submitRead(t, job, buf);
            };
        }
        return nullptr;
    });
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
                   },
                   IoTag{0, (std::uint64_t(job) << 32) | buf, 0, true});
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
FioWorkload::saveState(Serializer &s) const
{
    Workload::saveState(s);
    s.begin("fio");
    rng.saveState(s);
    for (const Job &j : jobs) {
        for (const Buffer &b : j.buffers) {
            s.u64(b.submit_time);
            s.u64(b.dma_done);
        }
        s.u64(j.completed.size());
        for (unsigned b : j.completed)
            s.u32(b);
        s.boolean(j.consuming);
        s.boolean(j.pump_scheduled);
        s.u32(j.consume_buf);
        j.pump_ev.saveQueued(s);
        j.consume_done_ev.saveQueued(s);
    }
    read_lat.saveState(s);
    regex_lat.saveState(s);
    write_lat.saveState(s);
    s.end("fio");
}

void
FioWorkload::restoreState(Deserializer &d)
{
    Workload::restoreState(d);
    d.begin("fio");
    rng.restoreState(d);
    for (Job &j : jobs) {
        for (Buffer &b : j.buffers) {
            b.submit_time = d.u64();
            b.dma_done = d.u64();
        }
        j.completed.clear();
        const std::uint64_t n = d.u64();
        for (std::uint64_t i = 0; i < n; ++i)
            j.completed.push_back(d.u32());
        j.consuming = d.boolean();
        j.pump_scheduled = d.boolean();
        j.consume_buf = d.u32();
        j.pump_ev.restoreQueued(d);
        j.consume_done_ev.restoreQueued(d);
    }
    read_lat.restoreState(d);
    regex_lat.restoreState(d);
    write_lat.restoreState(d);
    d.end("fio");
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
                        },
                        IoTag{1, (std::uint64_t(job) << 32) | buf,
                              std::uint64_t(t0), true});
    } else {
        submitRead(now, job, buf);
    }
}

} // namespace a4

#include "mem/tlb.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

Tlb::Tlb(std::string name, unsigned entries, unsigned page_bytes,
         unsigned ways)
    : entries_(entries), pageMask_(page_bytes - 1),
      pageShift_(log2Pow2(page_bytes)),
      ways_(ways == 0 || ways > entries ? entries : ways),
      numSets_(entries / ways_), setMask_(numSets_ - 1),
      wayPred_(PRED_SLOTS, 0),
      stats_(std::move(name)),
      statHits_(stats_.counter("hits")),
      statMisses_(stats_.counter("misses")),
      statFills_(stats_.counter("fills")),
      statEvictions_(stats_.counter("evictions"))
{
    IH_ASSERT(entries > 0, "TLB must have at least one entry");
    IH_ASSERT((page_bytes & (page_bytes - 1)) == 0,
              "page size must be a power of two");
    IH_ASSERT(entries % ways_ == 0,
              "TLB ways (%u) must divide entries (%u)", ways_, entries);
    IH_ASSERT((numSets_ & (numSets_ - 1)) == 0,
              "TLB set count (%u) must be a power of two", numSets_);
}

TlbEntry *
Tlb::lookupSlow(VAddr vp, ProcId proc, unsigned slot)
{
    TlbEntry *const set = &entries_[setIndex(vp) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        TlbEntry &e = set[w];
        if (e.valid && e.vpage == vp && e.proc == proc) {
            e.stamp = ++tick_;
            statHits_.inc();
            wayPred_[slot] =
                static_cast<unsigned>(&e - entries_.data());
            return &e;
        }
    }
    statMisses_.inc();
    return nullptr;
}

void
Tlb::insert(VAddr vaddr, Addr ppage, ProcId proc, Domain domain)
{
    const VAddr vp = vpageOf(vaddr);
    TlbEntry *const set = &entries_[setIndex(vp) * ways_];
    TlbEntry *slot = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        if (!set[w].valid) {
            slot = &set[w];
            ++valid_;
            break;
        }
    }
    if (!slot) {
        slot = set;
        for (unsigned w = 1; w < ways_; ++w) {
            if (set[w].stamp < slot->stamp)
                slot = &set[w];
        }
        statEvictions_.inc();
    }
    slot->vpage = vp;
    slot->ppage = ppage;
    slot->proc = proc;
    slot->domain = domain;
    slot->valid = true;
    slot->stamp = ++tick_;
    // Prime the way predictor: the next lookup of this page hits the
    // fresh entry without a set scan.
    wayPred_[predSlot(vp)] =
        static_cast<unsigned>(slot - entries_.data());
    statFills_.inc();
}

unsigned
Tlb::flushAll()
{
    unsigned n = 0;
    if (valid_ == 0) {
        IH_DEBUG_ASSERT(std::none_of(entries_.begin(), entries_.end(),
                                     [](const TlbEntry &e) {
                                         return e.valid;
                                     }),
                        "%s: occupancy 0 but entries valid",
                        stats_.name().c_str());
    } else {
        for (auto &e : entries_) {
            n += e.valid ? 1 : 0;
            e.valid = false;
        }
        IH_DEBUG_ASSERT(n == valid_, "%s: occupancy %u but %u entries valid",
                        stats_.name().c_str(), valid_, n);
        valid_ = 0;
    }
    stats_.lazyCounter(statFlushes_, "flushes").inc();
    stats_.lazyCounter(statFlushedEntries_, "flushed_entries").inc(n);
    return n;
}

unsigned
Tlb::flushProc(ProcId proc)
{
    unsigned n = 0;
    for (auto &e : entries_) {
        if (e.valid && e.proc == proc) {
            e.valid = false;
            ++n;
        }
    }
    valid_ -= n;
    stats_.lazyCounter(statFlushedEntries_, "flushed_entries").inc(n);
    return n;
}

unsigned
Tlb::validEntriesOf(Domain domain) const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        n += (e.valid && e.domain == domain) ? 1 : 0;
    return n;
}

} // namespace ih

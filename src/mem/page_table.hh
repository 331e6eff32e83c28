/**
 * @file
 * Physical memory layout, the physical page allocator, and per-process
 * address spaces.
 *
 * Physical memory is divided into NUM_REGIONS physically isolated DRAM
 * regions of REGION_BYTES each; region r owns physical addresses
 * [r * REGION_BYTES, (r+1) * REGION_BYTES). Strong isolation statically
 * assigns disjoint region sets (and the memory controllers that serve
 * them) to the secure and insecure domains.
 *
 * An AddressSpace binds a process to its allowed regions and L2 slices
 * and lazily allocates physical pages on first touch, choosing each
 * page's home slice per the active homing policy. IRONHIDE's dynamic
 * reconfiguration uses rehomeAll() to migrate page homes when slices are
 * re-assigned between clusters.
 */

#ifndef IH_MEM_PAGE_TABLE_HH
#define IH_MEM_PAGE_TABLE_HH

#include <array>
#include <unordered_map>
#include <vector>

#include "mem/homing.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace ih
{

/** Size of one physically isolated DRAM region. */
inline constexpr Addr REGION_BYTES = Addr(1) << 26; // 64 MiB

/** Region that physical address @p pa belongs to. */
constexpr RegionId
regionOf(Addr pa)
{
    return static_cast<RegionId>(pa / REGION_BYTES);
}

/** Bump allocator of physical pages within each DRAM region. */
class PhysAllocator
{
  public:
    explicit PhysAllocator(const SysConfig &cfg);

    /** Allocate one physical page in @p region; returns its address. */
    Addr allocPage(RegionId region);

    /** Pages currently allocated in @p region. */
    std::uint64_t pagesUsed(RegionId region) const;

    unsigned numRegions() const
    {
        return static_cast<unsigned>(next_.size());
    }

  private:
    unsigned pageBytes_;
    std::vector<std::uint64_t> next_; ///< next free page ordinal per region
};

/** Translation record of one mapped virtual page. */
struct PageInfo
{
    Addr ppage = 0;       ///< physical page address
    CoreId homeSlice = 0; ///< L2 home slice (LOCAL_HOMING)
};

/** Per-process virtual address space. */
class AddressSpace
{
  public:
    AddressSpace(const SysConfig &cfg, PhysAllocator &alloc, ProcId proc,
                 Domain domain);

    /**
     * Translate @p va, mapping the page on first touch. Newly mapped
     * pages round-robin over the allowed regions and (for local homing)
     * the allowed slices.
     *
     * Inline fast path through a small direct-mapped translation cache:
     * scans translate the same handful of pages for many consecutive
     * lines (workloads interleave a few arrays, which is why a single
     * MRU entry is not enough), so recent translations answer most
     * calls without touching the hash map. unordered_map never
     * invalidates element pointers on insert, and rehomeAll() updates
     * entries in place, so cached pointers always reflect current state.
     */
    const PageInfo &
    ensureMapped(VAddr va)
    {
        const VAddr vp = vpageOf(va);
        const TransCache &tc = tcache_[tcSlot(vp)];
        if (tc.vp == vp)
            return *tc.info;
        return mapSlow(vp);
    }

    /** Translate without mapping; nullptr when unmapped. */
    const PageInfo *translate(VAddr va) const;

    /** Home slice of the line at virtual address @p va (maps the page). */
    CoreId homeOf(VAddr va);

    /**
     * The home rule: the L2 slice of the line at line-aligned physical
     * address @p line_pa on the page @p info maps. Under local homing
     * that is the page's slice, else the line's hash over the allowed
     * slices. homeOf() and the L1 fill both answer with it; an L1 line
     * records the answer (CacheLine::home).
     */
    CoreId
    lineHome(const PageInfo &info, Addr line_pa) const
    {
        if (mode_ == HomingMode::LOCAL_HOMING)
            return info.homeSlice;
        return Homing::hashHome(line_pa, slices_);
    }

    /**
     * Set the homing policy. A space keeps its mode once it has mapped
     * a page (setting the same mode again is fine): a flip would file
     * the page's later fills under a second L2 home while its L1 copies
     * keep the first.
     */
    void setHomingMode(HomingMode mode);

    /** Configure the allowed resources (resets nothing). */
    void setAllowedRegions(std::vector<RegionId> regions);
    void setAllowedSlices(std::vector<CoreId> slices);

    /**
     * Re-home every mapped page onto @p new_slices (round-robin), as the
     * IRONHIDE reconfiguration does with unmap/set-home/remap.
     * @return number of pages whose home actually changed.
     */
    std::uint64_t rehomeAll(const std::vector<CoreId> &new_slices);

    /** Number of pages currently mapped. */
    std::uint64_t mappedPages() const { return pages_.size(); }

    HomingMode homingMode() const { return mode_; }
    ProcId proc() const { return proc_; }
    Domain domain() const { return domain_; }
    const std::vector<RegionId> &allowedRegions() const { return regions_; }
    const std::vector<CoreId> &allowedSlices() const { return slices_; }

    /** Reserve a fresh, never-used virtual range of @p bytes. */
    VAddr reserveRange(std::uint64_t bytes);

  private:
    /** Translation-cache slots (power of two). */
    static constexpr unsigned TC_SLOTS = 64;

    /** One direct-mapped translation-cache slot. The sentinel vp is not
     *  page-aligned, so it can never match a real lookup. */
    struct TransCache
    {
        VAddr vp = ~VAddr(0);
        PageInfo *info = nullptr;
    };

    VAddr vpageOf(VAddr va) const { return va & ~pageMask_; }

    unsigned tcSlot(VAddr vpage) const
    {
        return static_cast<unsigned>((vpage >> pageShift_) &
                                     (TC_SLOTS - 1));
    }

    /** Hash lookup / first-touch mapping behind the ensureMapped() fast
     *  path (@p vp is already page-aligned). */
    const PageInfo &mapSlow(VAddr vp);

    const SysConfig &cfg_;
    PhysAllocator &alloc_;
    ProcId proc_;
    Domain domain_;
    HomingMode mode_ = HomingMode::HASH_FOR_HOMING;
    std::vector<RegionId> regions_;
    std::vector<CoreId> slices_;
    VAddr pageMask_;
    std::uint64_t pageSeq_ = 0;  ///< allocation ordinal for round-robin
    VAddr brk_ = 0x10000;        ///< next unreserved virtual address
    std::unordered_map<VAddr, PageInfo> pages_;
    unsigned pageShift_; ///< log2(pageBytes)
    /** Direct-mapped recent translations (pointers are stable; see
     *  ensureMapped). */
    std::array<TransCache, TC_SLOTS> tcache_;
};

} // namespace ih

#endif // IH_MEM_PAGE_TABLE_HH

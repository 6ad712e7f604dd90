//! Paged LoRA adapters: per-tenant adapter identities, the adapter-weight
//! paging model, and the deterministic LRU adapter cache the schedulers
//! consult at every batch step.
//!
//! The S-LoRA observation, transplanted into the simulator: per-tenant
//! adapter weights are small relative to the base model but numerous, so
//! they should share the paged KV block pool instead of pinning HBM
//! permanently. Here an [`AdapterModel`] describes the per-adapter weight
//! footprint and the cache capacity; the paged scheduler carves the
//! corresponding blocks out of its [`crate::BlockAllocator`] up front, and
//! every batch step that activates a non-resident adapter pays a weight
//! load priced by [`crate::ServingCostModel::adapter_load_seconds`]. The
//! reserve-up-front schedulers hold the cache outside the block pool (they
//! have no allocator) but run the identical LRU and pay the identical
//! penalty, so policy comparisons isolate the admission axis.
//!
//! Everything here is deterministic and shared verbatim between the event
//! cores and the test-only reference loops, so trace equivalence holds bit
//! for bit on adapter-carrying workloads too.

/// Identity of one LoRA adapter. `AdapterId::BASE` (the `Default`) is the
/// base model itself — no adapter weights to page, no switch penalty —
/// which keeps adapter-free traces bit-identical to their pre-tenant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AdapterId(pub u32);

impl AdapterId {
    /// The base model: no adapter.
    pub const BASE: AdapterId = AdapterId(0);

    /// Whether this request runs the unadapted base model.
    #[must_use]
    pub fn is_base(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for AdapterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_base() {
            write!(f, "base")
        } else {
            write!(f, "lora-{}", self.0)
        }
    }
}

/// The adapter-paging model of one serving config: how much weight traffic
/// an adapter load moves and how many adapters the cache keeps resident.
///
/// [`AdapterModel::disabled`] prices nothing and reserves nothing — the
/// degenerate config every pre-tenant run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdapterModel {
    /// Per-adapter weight footprint, in KV-token equivalents (the unit the
    /// block pool is denominated in; the paged scheduler rounds it up to
    /// whole blocks).
    pub weight_tokens: usize,
    /// Adapters the cache keeps resident at once.
    pub cache_slots: usize,
}

impl AdapterModel {
    /// No adapters: nothing reserved, nothing priced.
    #[must_use]
    pub fn disabled() -> Self {
        AdapterModel {
            weight_tokens: 0,
            cache_slots: 0,
        }
    }

    /// An adapter model with `weight_tokens` of weight traffic per load and
    /// room for `cache_slots` resident adapters.
    ///
    /// # Panics
    ///
    /// Panics if either is zero (use [`AdapterModel::disabled`] for "no
    /// adapters" instead of a half-enabled config).
    #[must_use]
    pub fn new(weight_tokens: usize, cache_slots: usize) -> Self {
        assert!(
            weight_tokens > 0,
            "adapter weight footprint must be positive"
        );
        assert!(cache_slots > 0, "adapter cache needs at least one slot");
        AdapterModel {
            weight_tokens,
            cache_slots,
        }
    }

    /// Whether adapter paging is modeled at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.weight_tokens > 0 && self.cache_slots > 0
    }

    /// Whole KV blocks one adapter's weights occupy.
    #[must_use]
    pub fn blocks_per_adapter(&self, block_size: usize) -> usize {
        self.weight_tokens.div_ceil(block_size.max(1))
    }

    /// Blocks the paged scheduler carves out of its pool for the whole
    /// cache (`cache_slots` adapters' worth).
    #[must_use]
    pub fn reserved_blocks(&self, block_size: usize) -> usize {
        self.cache_slots * self.blocks_per_adapter(block_size)
    }
}

/// Adapter-cache counters of one serving run, reported in
/// [`crate::ServingReport`]. All fields are exact counts, so the event
/// cores and the reference loops must (and do) agree on them bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdapterStats {
    /// Batch-step adapter activations served from the cache.
    pub cache_hits: usize,
    /// Activations that had to load the adapter's weights (the priced
    /// cache-miss penalty).
    pub cache_loads: usize,
    /// Resident adapters displaced to make room for a load.
    pub evictions: usize,
    /// Most adapters resident at once.
    pub peak_resident: usize,
    /// KV-pool blocks reserved for adapter weights (0 on the
    /// reserve-up-front schedulers, which hold the cache outside the pool).
    pub reserved_blocks: usize,
}

impl AdapterStats {
    /// Fraction of adapter activations served without a weight load (0 for
    /// an adapter-free run).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_loads;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// A deterministic LRU cache of resident adapters.
///
/// `touch` is the only mutation: a hit refreshes recency, a miss loads the
/// adapter (evicting the coldest resident when full) and reports `false`
/// so the scheduler can price the load. Linear scans are deliberate — the
/// slot count is a handful, and the flat `Vec` keeps iteration order (and
/// therefore every counter) identical between the event cores and the
/// reference loops.
#[derive(Debug, Clone, PartialEq)]
pub struct AdapterCache {
    slots: usize,
    /// Resident adapters, coldest first.
    resident: Vec<AdapterId>,
    stats: AdapterStats,
}

impl AdapterCache {
    /// An empty cache with room for `slots` adapters.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        AdapterCache {
            slots,
            resident: Vec::with_capacity(slots),
            stats: AdapterStats::default(),
        }
    }

    /// Activates `adapter` for the coming batch step: `true` if its weights
    /// were already resident (refreshing recency), `false` if they had to
    /// be loaded — the caller prices that load. Zero-slot caches miss on
    /// every activation and keep nothing resident.
    ///
    /// # Panics
    ///
    /// Panics on [`AdapterId::BASE`]: the base model is always resident and
    /// must never be routed through the cache.
    pub fn touch(&mut self, adapter: AdapterId) -> bool {
        assert!(
            !adapter.is_base(),
            "the base model is not a cacheable adapter"
        );
        if let Some(position) = self.resident.iter().position(|&a| a == adapter) {
            let adapter = self.resident.remove(position);
            self.resident.push(adapter);
            self.stats.cache_hits += 1;
            return true;
        }
        self.stats.cache_loads += 1;
        if self.slots == 0 {
            return false;
        }
        if self.resident.len() == self.slots {
            self.resident.remove(0);
            self.stats.evictions += 1;
        }
        self.resident.push(adapter);
        self.stats.peak_resident = self.stats.peak_resident.max(self.resident.len());
        false
    }

    /// Adapters currently resident.
    #[must_use]
    pub fn resident_adapters(&self) -> usize {
        self.resident.len()
    }

    /// Records the KV-pool blocks the paged scheduler carved out for this
    /// cache, so the reservation shows up in [`AdapterStats`].
    pub fn set_reserved_blocks(&mut self, blocks: usize) {
        self.stats.reserved_blocks = blocks;
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> AdapterStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_adapter_is_the_default_and_displays() {
        assert_eq!(AdapterId::default(), AdapterId::BASE);
        assert!(AdapterId::BASE.is_base());
        assert!(!AdapterId(3).is_base());
        assert_eq!(AdapterId::BASE.to_string(), "base");
        assert_eq!(AdapterId(3).to_string(), "lora-3");
    }

    #[test]
    fn disabled_model_reserves_and_prices_nothing() {
        let model = AdapterModel::disabled();
        assert!(!model.enabled());
        assert_eq!(model.reserved_blocks(16), 0);
        let model = AdapterModel::new(96, 4);
        assert!(model.enabled());
        assert_eq!(model.blocks_per_adapter(16), 6);
        assert_eq!(model.blocks_per_adapter(64), 2, "rounded up");
        assert_eq!(model.reserved_blocks(64), 8);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn half_enabled_models_are_rejected() {
        let _ = AdapterModel::new(96, 0);
    }

    #[test]
    fn lru_cache_hits_refresh_recency_and_misses_evict_the_coldest() {
        let mut cache = AdapterCache::new(2);
        assert!(!cache.touch(AdapterId(1)), "cold load");
        assert!(!cache.touch(AdapterId(2)));
        assert!(cache.touch(AdapterId(1)), "resident");
        // 2 is now the coldest; loading 3 evicts it.
        assert!(!cache.touch(AdapterId(3)));
        assert!(!cache.touch(AdapterId(2)), "was evicted");
        let stats = cache.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_loads, 4);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.peak_resident, 2);
        assert_eq!(cache.resident_adapters(), 2);
        assert!((stats.hit_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_slot_cache_misses_everything_without_residency() {
        let mut cache = AdapterCache::new(0);
        assert!(!cache.touch(AdapterId(1)));
        assert!(!cache.touch(AdapterId(1)));
        assert_eq!(cache.resident_adapters(), 0);
        assert_eq!(cache.stats().cache_loads, 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "not a cacheable adapter")]
    fn base_model_never_enters_the_cache() {
        let mut cache = AdapterCache::new(2);
        let _ = cache.touch(AdapterId::BASE);
    }
}

//! Cache-hierarchy and NoC latency parameters.
//!
//! Compressed weight streams have essentially no temporal reuse, so caches
//! matter through (a) the latency of the level the consumer reads from and
//! (b) how many misses can be in flight (MSHRs), which bounds how much
//! latency a prefetcher can hide.

/// Latency (in core cycles) and capacity parameters of the on-chip memory
/// hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// L1 data cache hit latency.
    pub l1_latency: f64,
    /// L2 hit latency.
    pub l2_latency: f64,
    /// LLC slice hit latency, including the NoC hop to reach it.
    pub llc_latency: f64,
    /// DRAM access latency beyond the LLC (core cycles).
    pub memory_latency: f64,
    /// NoC hop latency used for core↔LLC and DECA↔LLC traffic.
    pub noc_hop_latency: f64,
    /// Outstanding misses the L2 can sustain (bounds prefetch depth).
    pub l2_mshrs: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// SPR-like hierarchy parameters at 2.5 GHz (rounded from public
    /// latency measurements of Sapphire Rapids).
    #[must_use]
    pub fn spr() -> Self {
        CacheConfig {
            l1_latency: 5.0,
            l2_latency: 16.0,
            llc_latency: 60.0,
            memory_latency: 280.0,
            noc_hop_latency: 12.0,
            l2_mshrs: 48,
            line_bytes: 64,
        }
    }

    /// Total unloaded latency of a demand access that misses all the way to
    /// DRAM and is consumed from the L2.
    #[must_use]
    pub fn demand_miss_latency(&self) -> f64 {
        self.l2_latency + self.llc_latency + self.memory_latency
    }

    /// Latency of reading data that is already resident in the L2 (e.g.
    /// brought there by a prefetcher).
    #[must_use]
    pub fn l2_hit_latency(&self) -> f64 {
        self.l2_latency
    }

    /// Latency of reading data from the LLC (bypassing the L2), e.g. the
    /// base DECA integration that reads compressed tiles from the LLC.
    #[must_use]
    pub fn llc_read_latency(&self) -> f64 {
        self.llc_latency + self.noc_hop_latency
    }

    /// Round-trip cost of handing a decompressed tile to the consumer
    /// through the L2 (write + read back) instead of dedicated registers.
    #[must_use]
    pub fn l2_roundtrip_latency(&self) -> f64 {
        2.0 * self.l2_latency
    }

    /// Cache lines needed to hold `bytes`.
    #[must_use]
    pub fn lines_for(&self, bytes: f64) -> usize {
        (bytes / self.line_bytes as f64).ceil() as usize
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::spr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spr_latencies_are_ordered() {
        let c = CacheConfig::spr();
        assert!(c.l1_latency < c.l2_latency);
        assert!(c.l2_latency < c.llc_latency);
        assert!(c.llc_latency < c.memory_latency);
        assert!(c.demand_miss_latency() > c.memory_latency);
    }

    #[test]
    fn derived_latencies() {
        let c = CacheConfig::spr();
        assert_eq!(c.l2_hit_latency(), 16.0);
        assert_eq!(c.llc_read_latency(), 72.0);
        assert_eq!(c.l2_roundtrip_latency(), 32.0);
    }

    #[test]
    fn lines_for_rounds_up() {
        let c = CacheConfig::spr();
        assert_eq!(c.lines_for(64.0), 1);
        assert_eq!(c.lines_for(65.0), 2);
        assert_eq!(c.lines_for(1024.0), 16);
        assert_eq!(c.lines_for(89.6), 2);
    }

    #[test]
    fn default_is_spr() {
        assert_eq!(CacheConfig::default(), CacheConfig::spr());
    }
}

//! The paged KV-cache block allocator: fixed-size, ref-counted blocks of
//! KV-token slots, handed out from a free list.
//!
//! vLLM's PagedAttention observation, transplanted into the simulator: a
//! scheduler that reserves a request's whole `prompt + output` footprint at
//! admission wastes most of the budget on tokens that do not exist yet.
//! Allocating the KV cache in small fixed-size blocks *as the sequence
//! grows* raises effective capacity, and ref-counting the blocks lets
//! several sequences share a common prefix ([`crate::prefix`]) without
//! copying — copy-on-write semantics via [`BlockAllocator::cow`].
//!
//! # Invariants (enforced by `crates/serve/tests/property_serving.rs`)
//!
//! * A block is never double-freed: every [`BlockAllocator::free`] matches
//!   exactly one prior [`BlockAllocator::alloc`] or
//!   [`BlockAllocator::fork`]; freeing an unreferenced block panics.
//! * `allocated_blocks() + free_blocks() == total_blocks()` at all times.
//! * After every run drains (sequences retired, prefix cache flushed),
//!   `allocated_blocks() == 0` and every ref-count is zero.
//! * The allocator is deterministic: the free list is a LIFO stack, so the
//!   same alloc/free sequence always yields the same block ids.

/// Index of one KV-cache block in the allocator's pool.
pub type BlockId = usize;

/// Aggregate allocator statistics, snapshot at any point of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocatorStats {
    /// Tokens per block.
    pub block_size: usize,
    /// Blocks in the pool.
    pub total_blocks: usize,
    /// Blocks currently holding at least one reference.
    pub allocated_blocks: usize,
    /// Largest `allocated_blocks` observed.
    pub peak_allocated_blocks: usize,
    /// Successful allocations over the allocator's lifetime.
    pub total_allocs: u64,
    /// Allocations that failed for want of a free block.
    pub failed_allocs: u64,
    /// Reference forks (prefix shares) over the lifetime.
    pub forks: u64,
}

/// A fixed-pool, ref-counted block allocator for paged KV caching.
///
/// Blocks hold `block_size` KV-token slots each. [`BlockAllocator::alloc`]
/// hands out a free block with reference count 1; [`BlockAllocator::fork`]
/// adds a reference (prefix sharing); [`BlockAllocator::free`] drops one
/// and returns the block to the free list when the count reaches zero.
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    block_size: usize,
    ref_counts: Vec<u32>,
    free_list: Vec<BlockId>,
    allocated: usize,
    peak_allocated: usize,
    total_allocs: u64,
    failed_allocs: u64,
    forks: u64,
}

impl BlockAllocator {
    /// Creates an allocator of `total_blocks` blocks of `block_size` tokens.
    /// A zero-block pool is legal (every `alloc` fails; the stats stay
    /// finite) — it models a replica with no KV headroom at all.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn new(block_size: usize, total_blocks: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        BlockAllocator {
            block_size,
            ref_counts: vec![0; total_blocks],
            // LIFO stack, lowest ids on top: deterministic and cheap.
            free_list: (0..total_blocks).rev().collect(),
            allocated: 0,
            peak_allocated: 0,
            total_allocs: 0,
            failed_allocs: 0,
            forks: 0,
        }
    }

    /// Sizes an allocator from a KV-token budget (e.g.
    /// [`deca_llm::footprint::max_kv_tokens`]): as many whole blocks as the
    /// budget holds (zero blocks when the budget is under one block).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn from_token_budget(block_size: usize, budget_tokens: usize) -> Self {
        Self::new(block_size, budget_tokens / block_size)
    }

    /// Tokens per block.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Blocks in the pool.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.ref_counts.len()
    }

    /// Token slots across the whole pool (`total_blocks × block_size`).
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.ref_counts.len() * self.block_size
    }

    /// Blocks currently free.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.free_list.len()
    }

    /// Blocks currently holding at least one reference.
    #[must_use]
    pub fn allocated_blocks(&self) -> usize {
        self.allocated
    }

    /// Whole blocks needed to hold `tokens` token slots (rounded up).
    #[must_use]
    pub fn blocks_for_tokens(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_size)
    }

    /// Fraction of the pool currently allocated (0 for an empty pool, so
    /// the stat stays finite instead of going NaN in [`crate::PagedStats`]).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.ref_counts.is_empty() {
            0.0
        } else {
            self.allocated as f64 / self.ref_counts.len() as f64
        }
    }

    /// Internal fragmentation of the allocated blocks: the fraction of
    /// their token slots not covered by `occupied_tokens` (0 when nothing
    /// is allocated).
    #[must_use]
    pub fn internal_fragmentation(&self, occupied_tokens: usize) -> f64 {
        let slots = self.allocated * self.block_size;
        if slots == 0 {
            0.0
        } else {
            1.0 - (occupied_tokens.min(slots) as f64 / slots as f64)
        }
    }

    /// Current reference count of a block.
    #[must_use]
    pub fn ref_count(&self, block: BlockId) -> u32 {
        self.ref_counts[block]
    }

    /// Allocates a free block with reference count 1, or `None` when the
    /// pool is exhausted (the caller evicts or preempts and retries).
    pub fn alloc(&mut self) -> Option<BlockId> {
        let Some(block) = self.free_list.pop() else {
            self.failed_allocs += 1;
            return None;
        };
        debug_assert_eq!(self.ref_counts[block], 0);
        self.ref_counts[block] = 1;
        self.allocated += 1;
        self.peak_allocated = self.peak_allocated.max(self.allocated);
        self.total_allocs += 1;
        Some(block)
    }

    /// Adds a reference to an allocated block (a sequence or the prefix
    /// cache sharing it).
    ///
    /// # Panics
    ///
    /// Panics if the block is free — sharing an unallocated block is a
    /// use-after-free.
    pub fn fork(&mut self, block: BlockId) {
        assert!(
            self.ref_counts[block] > 0,
            "fork of free block {block} (use after free)"
        );
        self.ref_counts[block] += 1;
        self.forks += 1;
    }

    /// Drops one reference; the block returns to the free list when the
    /// count reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if the block is already free — the double-free the property
    /// suite guards against.
    pub fn free(&mut self, block: BlockId) {
        assert!(self.ref_counts[block] > 0, "double free of block {block}");
        self.ref_counts[block] -= 1;
        if self.ref_counts[block] == 0 {
            self.allocated -= 1;
            self.free_list.push(block);
        }
    }

    /// Copy-on-write: returns a block the caller may mutate exclusively.
    /// A sole owner keeps its block; a shared block is released (one
    /// reference dropped) and a fresh private copy allocated. `None` when a
    /// copy is needed but the pool is exhausted — the shared reference is
    /// retained so the caller can evict/preempt and retry.
    ///
    /// # Panics
    ///
    /// Panics if the block is free.
    pub fn cow(&mut self, block: BlockId) -> Option<BlockId> {
        assert!(
            self.ref_counts[block] > 0,
            "copy-on-write of free block {block}"
        );
        if self.ref_counts[block] == 1 {
            return Some(block);
        }
        let copy = self.alloc()?;
        self.free(block);
        Some(copy)
    }

    /// Snapshot of the aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> AllocatorStats {
        AllocatorStats {
            block_size: self.block_size,
            total_blocks: self.ref_counts.len(),
            allocated_blocks: self.allocated,
            peak_allocated_blocks: self.peak_allocated,
            total_allocs: self.total_allocs,
            failed_allocs: self.failed_allocs,
            forks: self.forks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip_returns_blocks_to_the_pool() {
        let mut pool = BlockAllocator::new(16, 4);
        assert_eq!(pool.total_tokens(), 64);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.allocated_blocks(), 2);
        assert_eq!(pool.free_blocks(), 2);
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.allocated_blocks(), 0);
        assert_eq!(pool.free_blocks(), 4);
        assert_eq!(pool.stats().total_allocs, 2);
    }

    #[test]
    fn exhaustion_returns_none_and_counts_the_failure() {
        let mut pool = BlockAllocator::new(1, 2);
        assert!(pool.alloc().is_some());
        assert!(pool.alloc().is_some());
        assert_eq!(pool.alloc(), None);
        assert_eq!(pool.stats().failed_allocs, 1);
        assert!((pool.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fork_shares_and_free_releases_one_reference_at_a_time() {
        let mut pool = BlockAllocator::new(16, 2);
        let block = pool.alloc().unwrap();
        pool.fork(block);
        pool.fork(block);
        assert_eq!(pool.ref_count(block), 3);
        pool.free(block);
        pool.free(block);
        assert_eq!(pool.allocated_blocks(), 1, "still referenced");
        pool.free(block);
        assert_eq!(pool.allocated_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pool = BlockAllocator::new(16, 2);
        let block = pool.alloc().unwrap();
        pool.free(block);
        pool.free(block);
    }

    #[test]
    fn cow_keeps_exclusive_blocks_and_copies_shared_ones() {
        let mut pool = BlockAllocator::new(16, 3);
        let block = pool.alloc().unwrap();
        // Sole owner: no copy.
        assert_eq!(pool.cow(block), Some(block));
        // Shared: the writer gets a fresh block, the original keeps one ref.
        pool.fork(block);
        let copy = pool.cow(block).unwrap();
        assert_ne!(copy, block);
        assert_eq!(pool.ref_count(block), 1);
        assert_eq!(pool.ref_count(copy), 1);
        // Shared but exhausted: the reference is retained for a retry.
        pool.fork(block);
        let _spare = pool.alloc().unwrap();
        assert_eq!(pool.cow(block), None);
        assert_eq!(pool.ref_count(block), 2);
    }

    #[test]
    fn token_rounding_and_fragmentation() {
        let mut pool = BlockAllocator::from_token_budget(16, 100);
        assert_eq!(pool.total_blocks(), 6);
        assert_eq!(pool.blocks_for_tokens(1), 1);
        assert_eq!(pool.blocks_for_tokens(16), 1);
        assert_eq!(pool.blocks_for_tokens(17), 2);
        let _a = pool.alloc().unwrap();
        let _b = pool.alloc().unwrap();
        // 2 blocks = 32 slots; 24 occupied tokens leave 25% internal waste.
        assert!((pool.internal_fragmentation(24) - 0.25).abs() < 1e-12);
        assert_eq!(pool.internal_fragmentation(40), 0.0, "clamped");
    }

    /// Regression: a zero-block pool used to divide by zero and leak NaN
    /// utilization into `PagedStats`; now every stat stays finite and
    /// every alloc fails cleanly.
    #[test]
    fn zero_size_pool_keeps_stats_finite() {
        let mut pool = BlockAllocator::new(16, 0);
        assert_eq!(pool.total_blocks(), 0);
        assert_eq!(pool.total_tokens(), 0);
        assert_eq!(pool.alloc(), None);
        assert_eq!(pool.utilization(), 0.0, "not NaN");
        assert_eq!(pool.internal_fragmentation(0), 0.0, "not NaN");
        let stats = pool.stats();
        assert_eq!(stats.failed_allocs, 1);
        assert_eq!(stats.peak_allocated_blocks, 0);
        // The budget-sizing path hits the same case for sub-block budgets.
        let tiny = BlockAllocator::from_token_budget(16, 10);
        assert_eq!(tiny.total_blocks(), 0);
        assert_eq!(tiny.utilization(), 0.0);
    }

    #[test]
    fn allocation_order_is_deterministic() {
        let mut a = BlockAllocator::new(8, 8);
        let mut b = BlockAllocator::new(8, 8);
        let seq_a: Vec<_> = (0..5).map(|_| a.alloc().unwrap()).collect();
        let seq_b: Vec<_> = (0..5).map(|_| b.alloc().unwrap()).collect();
        assert_eq!(seq_a, seq_b);
        a.free(seq_a[2]);
        assert_eq!(a.alloc().unwrap(), seq_a[2], "LIFO free list");
    }
}

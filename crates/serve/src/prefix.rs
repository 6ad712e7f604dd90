//! Radix-tree prefix cache over token-id prefixes, with block-granular
//! copy-on-write sharing and LRU eviction of unreferenced blocks.
//!
//! SGLang's RadixAttention idea on top of the [`crate::kv`] allocator: the
//! cache is a radix tree whose edges are whole KV blocks
//! ([`BlockAllocator::block_size`] token ids each). A request's prompt is
//! matched block by block from the root; every matched block is shared with
//! the requesting sequence via [`BlockAllocator::fork`] (refcount sharing),
//! so the prefill only has to process the *uncached suffix*. Shared blocks
//! are immutable by construction — sequence growth appends at a block
//! boundary or inside a private block — so the serving engine never writes
//! one; [`BlockAllocator::cow`] exists for callers that do mutate a shared
//! block. After a prefill (and again on completion, when the generated
//! tokens are known) the sequence's full blocks are inserted, so later
//! same-session turns and same-system-prompt sessions hit.
//!
//! Only *full* blocks enter the tree: partial trailing blocks stay private
//! to their sequence, which keeps every shared block immutable (sequence
//! growth always appends at a block boundary or inside a private block).
//!
//! # Invariants (enforced by `crates/serve/tests/property_serving.rs`)
//!
//! * The cache holds exactly one reference per resident node; a lookup
//!   hands the *caller* one additional reference per matched block.
//! * Eviction only touches leaf nodes whose block the cache is the sole
//!   owner of (`ref_count == 1`): blocks still referenced by a running
//!   sequence are never reclaimed under it.
//! * [`PrefixCache::flush`] releases every resident block, so after the
//!   sequences retire too, the allocator drains to `allocated == 0` and
//!   all ref-counts return to zero.
//! * Determinism: ties in the LRU order break on the smaller node id.
//!
//! # Bookkeeping contract and complexity
//!
//! The cache tracks incrementally, per node, whether its block is *shared*
//! (the allocator's ref-count exceeds the cache's own reference) and how
//! many of its children root a shared descendant. That makes
//! [`PrefixCache::evictable_blocks`] O(1) and [`PrefixCache::evict_lru`]
//! O(log evictable) — the original full-arena scans cost O(cache size) per
//! admission decision, which dominated the simulator at million-session
//! scale. The price is a contract: once a block is resident, a caller must
//! drop its references through [`PrefixCache::release`] rather than
//! [`BlockAllocator::free`], so the shared flags resync as the ref-count
//! crosses back to one. (References are only *acquired* through
//! [`PrefixCache::lookup`] and [`PrefixCache::insert`], which resync on
//! their own; `release` degrades to a plain `free` for blocks the cache
//! never saw.) Debug builds cross-check both the evictable counter and
//! every eviction choice against the original reference scans.

use std::collections::{BTreeSet, HashMap};

use crate::kv::{BlockAllocator, BlockId};

/// Arena index of one radix-tree node.
type NodeId = usize;

/// The root occupies arena slot 0 and holds no block.
const ROOT: NodeId = 0;

#[derive(Debug, Clone)]
struct Node {
    /// Token ids of this node's block (the edge label from the parent);
    /// empty for the root.
    key: Vec<u64>,
    /// The KV block backing this node (unused by the root).
    block: BlockId,
    parent: NodeId,
    children: HashMap<Vec<u64>, NodeId>,
    /// Logical LRU timestamp of the last lookup that traversed this node.
    last_use: u64,
    /// True while the block's ref-count exceeds the cache's own reference
    /// (a running sequence still shares it), as of the last resync.
    shared: bool,
    /// Children whose subtree contains a shared node. A node is *pinned*
    /// (unevictable even by cascade) iff it is shared or this is nonzero.
    pinned_children: usize,
}

impl Node {
    /// Pinned nodes can never be delivered by [`PrefixCache::evict_lru`]:
    /// the node's own block is shared, or a shared descendant keeps it from
    /// ever becoming a sole-owner leaf.
    fn pinned(&self) -> bool {
        self.shared || self.pinned_children > 0
    }
}

/// Counters of one cache's lifetime, for [`crate::scheduler::PagedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Blocks currently resident in the tree.
    pub resident_blocks: usize,
    /// Largest resident-block count observed.
    pub peak_resident_blocks: usize,
    /// Blocks evicted over the cache's lifetime.
    pub evictions: u64,
    /// Blocks inserted over the cache's lifetime.
    pub insertions: u64,
}

/// A radix tree of cached KV blocks keyed by token-id prefixes.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    block_size: usize,
    nodes: Vec<Option<Node>>,
    recycled: Vec<NodeId>,
    clock: u64,
    resident: usize,
    peak_resident: usize,
    evictions: u64,
    insertions: u64,
    /// Resident block → its tree node, for [`PrefixCache::release`] resync.
    by_block: HashMap<BlockId, NodeId>,
    /// Eviction candidates — exactly the unshared leaves — ordered by
    /// `(last_use, id)` so iteration order matches the reference LRU scan.
    lru: BTreeSet<(u64, NodeId)>,
    /// Non-root nodes currently pinned; `resident - pinned_count` is the
    /// cascade-deliverable eviction total.
    pinned_count: usize,
}

impl PrefixCache {
    /// Creates an empty cache over blocks of `block_size` token ids.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        PrefixCache {
            block_size,
            nodes: vec![Some(Node {
                key: Vec::new(),
                block: 0,
                parent: ROOT,
                children: HashMap::new(),
                last_use: 0,
                shared: false,
                pinned_children: 0,
            })],
            recycled: Vec::new(),
            clock: 0,
            resident: 0,
            peak_resident: 0,
            evictions: 0,
            insertions: 0,
            by_block: HashMap::new(),
            lru: BTreeSet::new(),
            pinned_count: 0,
        }
    }

    fn node(&self, id: NodeId) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    /// Blocks currently resident in the tree.
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.resident
    }

    /// Blocks that repeated [`PrefixCache::evict_lru`] calls could free
    /// right now, in O(1). Eviction is leaf-first and only touches
    /// sole-owner blocks, so a resident block is cascade-deliverable
    /// exactly when its *entire subtree* is sole-owner. Sole ownership of
    /// the node alone is not enough: [`PrefixCache::insert`] deduplicates
    /// an already-resident prefix block while still attaching the
    /// sequence's divergent child beneath it, so a sequence can share a
    /// mid-tree node without referencing its ancestor — that ancestor
    /// stays pinned until the shared descendant retires, and must not be
    /// counted. Lets a caller check an allocation is satisfiable *before*
    /// sacrificing cache residency.
    #[must_use]
    pub fn evictable_blocks(&self, allocator: &BlockAllocator) -> usize {
        debug_assert_eq!(
            self.resident - self.pinned_count,
            self.scan_evictable(allocator),
            "incremental pin counters diverged from the reference scan \
             (was a resident block freed without PrefixCache::release?)"
        );
        self.resident - self.pinned_count
    }

    /// Reference implementation of [`PrefixCache::evictable_blocks`]: pin
    /// every ancestor of a shared node (per the live allocator ref-counts),
    /// then count the unpinned sole-owner residents. Iterative (long
    /// transcripts make arbitrarily deep chains, so recursion would risk
    /// the stack), and O(nodes) amortized: each parent-chain walk stops at
    /// the first already-pinned ancestor. Debug cross-check only.
    fn scan_evictable(&self, allocator: &BlockAllocator) -> usize {
        let mut pinned = vec![false; self.nodes.len()];
        for id in 1..self.nodes.len() {
            let Some(node) = self.nodes[id].as_ref() else {
                continue;
            };
            if allocator.ref_count(node.block) == 1 {
                continue;
            }
            let mut at = id;
            while at != ROOT && !pinned[at] {
                pinned[at] = true;
                at = self.node(at).parent;
            }
        }
        (1..self.nodes.len())
            .filter(|&id| {
                self.nodes[id]
                    .as_ref()
                    .is_some_and(|node| !pinned[id] && allocator.ref_count(node.block) == 1)
            })
            .count()
    }

    /// Reference implementation of the [`PrefixCache::evict_lru`] victim
    /// choice: full arena scan for the `(last_use, id)`-minimal sole-owner
    /// leaf, against the live allocator ref-counts. Debug cross-check only.
    fn scan_victim(&self, allocator: &BlockAllocator) -> Option<(u64, NodeId)> {
        let mut victim: Option<(u64, NodeId)> = None;
        for id in 1..self.nodes.len() {
            let Some(node) = self.nodes[id].as_ref() else {
                continue;
            };
            if !node.children.is_empty() || allocator.ref_count(node.block) != 1 {
                continue;
            }
            let candidate = (node.last_use, id);
            if victim.is_none_or(|best| candidate < best) {
                victim = Some(candidate);
            }
        }
        victim
    }

    /// Snapshot of the lifetime counters.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        PrefixCacheStats {
            resident_blocks: self.resident,
            peak_resident_blocks: self.peak_resident,
            evictions: self.evictions,
            insertions: self.insertions,
        }
    }

    /// Bumps `id`'s LRU timestamp, keeping its candidate-set key in sync.
    fn touch(&mut self, id: NodeId, now: u64) {
        let node = self.node(id);
        if node.children.is_empty() && !node.shared {
            let stale = (node.last_use, id);
            self.lru.remove(&stale);
            self.lru.insert((now, id));
        }
        self.node_mut(id).last_use = now;
    }

    /// Records a shared-flag transition for `id`, maintaining the LRU
    /// candidate set and the pin counters (with ancestor propagation).
    fn set_shared(&mut self, id: NodeId, shared: bool) {
        let node = self.node(id);
        if node.shared == shared {
            return;
        }
        let was_pinned = node.pinned();
        if node.children.is_empty() {
            let key = (node.last_use, id);
            if shared {
                self.lru.remove(&key);
            } else {
                self.lru.insert(key);
            }
        }
        self.node_mut(id).shared = shared;
        let now_pinned = self.node(id).pinned();
        if was_pinned != now_pinned {
            self.propagate_pin_flip(id, now_pinned);
        }
    }

    /// Walks the ancestor chain after `id`'s pinned state flipped to
    /// `now_pinned`, updating the pinned total and each ancestor's
    /// pinned-children count. Stops at the first ancestor whose own state
    /// does not flip, so the per-update cost telescopes the same way the
    /// reference scan's pin walk does.
    fn propagate_pin_flip(&mut self, mut id: NodeId, now_pinned: bool) {
        debug_assert_ne!(id, ROOT, "the root holds no block and is never pinned");
        loop {
            if now_pinned {
                self.pinned_count += 1;
            } else {
                self.pinned_count -= 1;
            }
            let parent = self.node(id).parent;
            let node = self.node_mut(parent);
            let was_pinned = node.pinned();
            if now_pinned {
                node.pinned_children += 1;
            } else {
                node.pinned_children -= 1;
            }
            if parent == ROOT || was_pinned == node.pinned() {
                return;
            }
            id = parent;
        }
    }

    /// Matches the longest cached block-aligned prefix of `tokens` and
    /// shares every matched block with the caller: each returned block has
    /// been [`BlockAllocator::fork`]ed once, and the caller owns that
    /// reference (releases it with [`PrefixCache::release`]). The cached
    /// prefix length in tokens is `result.len() * block_size`.
    pub fn lookup(&mut self, tokens: &[u64], allocator: &mut BlockAllocator) -> Vec<BlockId> {
        self.clock += 1;
        let now = self.clock;
        let mut node = ROOT;
        let mut matched = Vec::new();
        for chunk in tokens.chunks_exact(self.block_size) {
            let Some(&child) = self.node(node).children.get(chunk) else {
                break;
            };
            allocator.fork(self.node(child).block);
            matched.push(self.node(child).block);
            self.touch(child, now);
            // The caller now holds a reference on top of the cache's own.
            self.set_shared(child, true);
            node = child;
        }
        matched
    }

    /// Inserts the full blocks of `tokens` (a sequence's prompt, or its
    /// prompt plus generated output on completion) into the tree. `blocks`
    /// is the sequence's block list covering at least those tokens. Each
    /// *newly created* node takes its own reference on the sequence's block
    /// (the cache's ownership share); blocks whose prefix is already
    /// resident are left untouched, so duplicates are deduplicated in favor
    /// of the first writer.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` does not cover the full blocks of `tokens`.
    pub fn insert(&mut self, tokens: &[u64], blocks: &[BlockId], allocator: &mut BlockAllocator) {
        let full_blocks = tokens.len() / self.block_size;
        assert!(
            blocks.len() >= full_blocks,
            "sequence holds {} blocks but {} full blocks of tokens were offered",
            blocks.len(),
            full_blocks
        );
        self.clock += 1;
        let now = self.clock;
        let mut node = ROOT;
        for (i, chunk) in tokens.chunks_exact(self.block_size).enumerate() {
            if let Some(&child) = self.node(node).children.get(chunk) {
                self.touch(child, now);
                node = child;
                continue;
            }
            allocator.fork(blocks[i]);
            // The parent gains its first child below: eviction is
            // leaf-only, so it stops being a candidate.
            if node != ROOT && self.node(node).children.is_empty() && !self.node(node).shared {
                self.lru.remove(&(self.node(node).last_use, node));
            }
            // The sequence still holds its own reference, so a fresh node
            // starts shared; computed from the live count for robustness.
            let shared = allocator.ref_count(blocks[i]) > 1;
            let fresh = self.new_node(Node {
                key: chunk.to_vec(),
                block: blocks[i],
                parent: node,
                children: HashMap::new(),
                last_use: now,
                shared,
                pinned_children: 0,
            });
            self.node_mut(node).children.insert(chunk.to_vec(), fresh);
            let displaced = self.by_block.insert(blocks[i], fresh);
            debug_assert!(
                displaced.is_none(),
                "block {} resident under two tree nodes",
                blocks[i]
            );
            self.resident += 1;
            self.peak_resident = self.peak_resident.max(self.resident);
            self.insertions += 1;
            if shared {
                self.propagate_pin_flip(fresh, true);
            } else {
                self.lru.insert((now, fresh));
            }
            node = fresh;
        }
    }

    fn new_node(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.recycled.pop() {
            self.nodes[id] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    /// Drops one caller-held reference on `block`. For a cache-resident
    /// block this is the required replacement for [`BlockAllocator::free`]:
    /// it resyncs the node's shared flag as the ref-count falls back to the
    /// cache's own reference, which is what makes the block evictable
    /// again. For a block the cache never saw (a sequence's private tail,
    /// or one already evicted) it degrades to a plain `free`.
    pub fn release(&mut self, block: BlockId, allocator: &mut BlockAllocator) {
        allocator.free(block);
        if let Some(&id) = self.by_block.get(&block) {
            let refs = allocator.ref_count(block);
            debug_assert!(
                refs >= 1,
                "resident block {block} freed past the cache's own reference"
            );
            self.set_shared(id, refs > 1);
        }
    }

    /// Evicts the least-recently-used *evictable* block — a leaf node whose
    /// block the cache is the sole owner of — freeing it back to the
    /// allocator in O(log evictable). Returns `false` when nothing is
    /// evictable (every resident block is still shared with a running
    /// sequence, or the tree is empty).
    pub fn evict_lru(&mut self, allocator: &mut BlockAllocator) -> bool {
        debug_assert_eq!(
            self.lru.first().copied(),
            self.scan_victim(allocator),
            "incremental LRU candidates diverged from the reference scan \
             (was a resident block freed without PrefixCache::release?)"
        );
        let Some((_, id)) = self.lru.pop_first() else {
            return false;
        };
        let node = self.nodes[id].take().expect("victim is live");
        debug_assert_eq!(
            allocator.ref_count(node.block),
            1,
            "eviction candidate is not sole-owner"
        );
        self.node_mut(node.parent).children.remove(&node.key);
        self.by_block.remove(&node.block);
        allocator.free(node.block);
        self.recycled.push(id);
        self.resident -= 1;
        self.evictions += 1;
        // The victim was an unshared leaf, hence unpinned: no counter
        // propagation. Its parent may have just become a candidate leaf.
        if node.parent != ROOT {
            let parent = self.node(node.parent);
            if parent.children.is_empty() && !parent.shared {
                self.lru.insert((parent.last_use, node.parent));
            }
        }
        true
    }

    /// [`PrefixCache::evict_lru`], but additionally returns the victim's
    /// chained path hash ([`crate::tier::chain_hash`] folded from
    /// [`crate::tier::PATH_HASH_SEED`] over every block's tokens from the
    /// root), so the caller can *demote* the evicted block into a lower
    /// KV tier ([`crate::TierResidency::demote`]) instead of dropping it.
    /// Returns `None` when nothing is evictable. The plain `evict_lru`
    /// stays hash-free, so untiered runs pay nothing for this hook.
    pub fn evict_lru_demoting(&mut self, allocator: &mut BlockAllocator) -> Option<u64> {
        let &(_, id) = self.lru.first()?;
        let hash = self.path_hash(id);
        let evicted = self.evict_lru(allocator);
        debug_assert!(evicted, "a present LRU candidate must evict");
        Some(hash)
    }

    /// The chained hash of every token from the root through `id`'s block.
    fn path_hash(&self, id: NodeId) -> u64 {
        let mut chain = Vec::new();
        let mut at = id;
        while at != ROOT {
            chain.push(at);
            at = self.node(at).parent;
        }
        let mut hash = crate::tier::PATH_HASH_SEED;
        for &node in chain.iter().rev() {
            hash = crate::tier::chain_hash(hash, &self.node(node).key);
        }
        hash
    }

    /// Releases every resident block the cache is the sole owner of (leaf
    /// first, so whole chains drain). Blocks still shared with running
    /// sequences stay resident.
    pub fn flush(&mut self, allocator: &mut BlockAllocator) {
        while self.evict_lru(allocator) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u64>) -> Vec<u64> {
        range.collect()
    }

    /// Allocates `n` private blocks for a sequence.
    fn seq_blocks(pool: &mut BlockAllocator, n: usize) -> Vec<BlockId> {
        (0..n).map(|_| pool.alloc().unwrap()).collect()
    }

    #[test]
    fn lookup_misses_then_hits_after_insert() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let tokens = ids(0..10); // 2 full blocks + 2 trailing tokens
        assert!(cache.lookup(&tokens, &mut pool).is_empty());

        let blocks = seq_blocks(&mut pool, 3);
        cache.insert(&tokens, &blocks, &mut pool);
        assert_eq!(cache.resident_blocks(), 2, "only full blocks are cached");
        // The cache holds one extra ref on each inserted block.
        assert_eq!(pool.ref_count(blocks[0]), 2);
        assert_eq!(pool.ref_count(blocks[2]), 1, "partial block stays private");

        let matched = cache.lookup(&tokens, &mut pool);
        assert_eq!(matched, vec![blocks[0], blocks[1]]);
        // The lookup handed us one more reference per matched block.
        assert_eq!(pool.ref_count(blocks[0]), 3);
        for block in matched {
            cache.release(block, &mut pool);
        }
    }

    #[test]
    fn divergent_suffixes_share_the_common_prefix_only() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let a: Vec<u64> = [0, 1, 2, 3, 10, 11, 12, 13].to_vec();
        let b: Vec<u64> = [0, 1, 2, 3, 20, 21, 22, 23].to_vec();
        let blocks_a = seq_blocks(&mut pool, 2);
        cache.insert(&a, &blocks_a, &mut pool);
        let blocks_b = seq_blocks(&mut pool, 2);
        cache.insert(&b, &blocks_b, &mut pool);
        // b's first block duplicated a's resident prefix: not re-inserted.
        assert_eq!(cache.resident_blocks(), 3);
        assert_eq!(pool.ref_count(blocks_b[0]), 1, "duplicate stays private");

        let matched = cache.lookup(&b, &mut pool);
        assert_eq!(matched, vec![blocks_a[0], blocks_b[1]]);
        for block in matched {
            cache.release(block, &mut pool);
        }
    }

    #[test]
    fn eviction_is_lru_leaf_first_and_spares_shared_blocks() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let chain = ids(0..8); // parent block + child block
        let blocks = seq_blocks(&mut pool, 2);
        cache.insert(&chain, &blocks, &mut pool);
        // Release the sequence's own refs: cache is the sole owner.
        cache.release(blocks[0], &mut pool);
        cache.release(blocks[1], &mut pool);
        assert_eq!(pool.allocated_blocks(), 2);

        // The parent is not a leaf: the child must go first.
        assert!(cache.evict_lru(&mut pool));
        assert_eq!(cache.resident_blocks(), 1);
        assert_eq!(pool.ref_count(blocks[1]), 0);
        assert_eq!(pool.ref_count(blocks[0]), 1, "parent still cached");

        // A block shared with a "running sequence" (here re-acquired
        // through a lookup) is not evictable.
        let matched = cache.lookup(&chain[..4], &mut pool);
        assert_eq!(matched, vec![blocks[0]]);
        assert!(!cache.evict_lru(&mut pool));
        cache.release(blocks[0], &mut pool);
        assert!(cache.evict_lru(&mut pool));
        assert_eq!(pool.allocated_blocks(), 0);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn lru_order_follows_lookups() {
        let mut pool = BlockAllocator::new(2, 16);
        let mut cache = PrefixCache::new(2);
        let a: Vec<u64> = vec![1, 2];
        let b: Vec<u64> = vec![3, 4];
        let blocks_a = seq_blocks(&mut pool, 1);
        cache.insert(&a, &blocks_a, &mut pool);
        let blocks_b = seq_blocks(&mut pool, 1);
        cache.insert(&b, &blocks_b, &mut pool);
        cache.release(blocks_a[0], &mut pool);
        cache.release(blocks_b[0], &mut pool);
        // Touch `a`: `b` becomes the LRU victim.
        for block in cache.lookup(&a, &mut pool) {
            cache.release(block, &mut pool);
        }
        assert!(cache.evict_lru(&mut pool));
        assert_eq!(pool.ref_count(blocks_b[0]), 0, "b evicted first");
        assert_eq!(pool.ref_count(blocks_a[0]), 1);
    }

    #[test]
    fn evictable_blocks_counts_exactly_the_sole_owner_residents() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let tokens = ids(0..12); // 3 full blocks in a chain
        let blocks = seq_blocks(&mut pool, 3);
        cache.insert(&tokens, &blocks, &mut pool);
        // The sequence still holds all three: nothing is evictable.
        assert_eq!(cache.evictable_blocks(&pool), 0);
        // Sequence releases its path: the whole chain becomes evictable
        // (the count is the cascade total, not just current leaves).
        for &block in &blocks {
            cache.release(block, &mut pool);
        }
        assert_eq!(cache.evictable_blocks(&pool), 3);
        // A sequence re-sharing a prefix pins that path again.
        let matched = cache.lookup(&ids(0..8), &mut pool);
        assert_eq!(matched.len(), 2);
        assert_eq!(cache.evictable_blocks(&pool), 1);
        // And the count is exactly what eviction can deliver.
        assert!(cache.evict_lru(&mut pool));
        assert!(!cache.evict_lru(&mut pool));
        for block in matched {
            cache.release(block, &mut pool);
        }
    }

    /// Regression: a dedup-insert can leave a sequence sharing a mid-tree
    /// node without referencing its ancestor — the ancestor is sole-owner
    /// yet unevictable while the shared descendant lives, and
    /// `evictable_blocks` must not count it (it used to, promising blocks
    /// that `evict_lru` could never deliver).
    #[test]
    fn evictable_blocks_excludes_sole_owner_nodes_above_shared_descendants() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        // Sequence A inserts two chained blocks.
        let a: Vec<u64> = vec![0, 1, 2, 3, 10, 11, 12, 13];
        let blocks_a = seq_blocks(&mut pool, 2);
        cache.insert(&a, &blocks_a, &mut pool);
        // Sequence B duplicates A's first block of tokens (deduplicated:
        // B keeps its private copy) and diverges in its second, which the
        // cache attaches beneath A's resident prefix block.
        let b: Vec<u64> = vec![0, 1, 2, 3, 20, 21, 22, 23];
        let blocks_b = seq_blocks(&mut pool, 2);
        cache.insert(&b, &blocks_b, &mut pool);
        // A retires; B keeps running. The cache now solely owns A's whole
        // chain, but A's first block sits above B's still-shared divergent
        // block: only A's leaf is deliverable.
        cache.release(blocks_a[0], &mut pool);
        cache.release(blocks_a[1], &mut pool);
        assert_eq!(cache.evictable_blocks(&pool), 1);
        assert!(cache.evict_lru(&mut pool));
        assert!(!cache.evict_lru(&mut pool), "nothing else is deliverable");
        assert_eq!(cache.evictable_blocks(&pool), 0);
        // B retires: the remaining chain becomes deliverable end to end.
        cache.release(blocks_b[0], &mut pool);
        cache.release(blocks_b[1], &mut pool);
        assert_eq!(cache.evictable_blocks(&pool), 2);
        cache.flush(&mut pool);
        assert_eq!(pool.allocated_blocks(), 0);
    }

    #[test]
    fn flush_drains_everything_unshared() {
        let mut pool = BlockAllocator::new(4, 32);
        let mut cache = PrefixCache::new(4);
        for stream in 0..4u64 {
            let tokens: Vec<u64> = (0..12).map(|p| stream * 100 + p).collect();
            let blocks = seq_blocks(&mut pool, 3);
            cache.insert(&tokens, &blocks, &mut pool);
            for block in blocks {
                cache.release(block, &mut pool);
            }
        }
        assert_eq!(cache.resident_blocks(), 12);
        cache.flush(&mut pool);
        assert_eq!(cache.resident_blocks(), 0);
        assert_eq!(pool.allocated_blocks(), 0);
    }

    /// The demoting evictor returns the same hash a caller computes by
    /// folding `chain_hash` over the victim's full token path — the key
    /// the residency map is probed with at admission.
    #[test]
    fn demoting_eviction_hashes_the_full_root_path() {
        use crate::tier::{chain_hash, PATH_HASH_SEED};
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let tokens = ids(0..8); // two chained blocks
        let blocks = seq_blocks(&mut pool, 2);
        cache.insert(&tokens, &blocks, &mut pool);
        cache.release(blocks[0], &mut pool);
        cache.release(blocks[1], &mut pool);

        // Leaf first: its hash covers both blocks' tokens.
        let leaf = chain_hash(chain_hash(PATH_HASH_SEED, &tokens[..4]), &tokens[4..]);
        assert_eq!(cache.evict_lru_demoting(&mut pool), Some(leaf));
        let parent = chain_hash(PATH_HASH_SEED, &tokens[..4]);
        assert_eq!(cache.evict_lru_demoting(&mut pool), Some(parent));
        assert_eq!(cache.evict_lru_demoting(&mut pool), None, "tree empty");
        assert_eq!(pool.allocated_blocks(), 0);
    }

    /// `release` on a block the cache never saw is a plain allocator free.
    #[test]
    fn release_degrades_to_free_for_unknown_blocks() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let block = pool.alloc().unwrap();
        cache.release(block, &mut pool);
        assert_eq!(pool.allocated_blocks(), 0);
        assert_eq!(cache.evictable_blocks(&pool), 0);
    }
}

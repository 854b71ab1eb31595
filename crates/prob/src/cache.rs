//! Content-addressed oracle-result cache shared across co-tenant jobs.
//!
//! A corner sweep asks a *family* of limit states the same expensive
//! question at nearby points: every corner's `g_i(x)` is a cheap
//! per-corner shift of one shared simulator metric. When two corner jobs
//! evaluate the identical input vector — which common-random-number
//! seeding makes routine — the second simulation is pure waste. An
//! [`OracleCache`] memoizes results by *content address*: the key is
//! FNV-1a over the input vector's raw IEEE-754 bits plus a caller-chosen
//! 64-bit oracle id, so the same `x` under the same oracle id hits
//! regardless of which job, thread, or corner asks.
//!
//! # Key format
//!
//! The composed key hashes, in order: the oracle id's 8 little-endian
//! bytes, then each coordinate's `f64::to_bits()` as 8 little-endian
//! bytes, through FNV-1a (offset `0xcbf2_9ce4_8422_2325`, prime
//! `0x0000_0100_0000_01b3`). Raw bits — not numeric equality — are the
//! identity: `-0.0` and `+0.0` are *distinct* entries, and distinct NaN
//! payloads are distinct entries. This is deliberate: the cache must be
//! invisible to the determinism contract, and a simulator is free to
//! treat `-0.0` and `+0.0` differently.
//!
//! The 64-bit FNV value is only a bucket locator. Entries are stored
//! under the **full** `(oracle id, bit pattern)` key and compared with
//! exact equality, so an FNV collision degrades to a lookup miss /
//! bucket neighbor — it can never return the wrong cached value.
//!
//! # Determinism contract
//!
//! Cached values are the bit-for-bit results of the first evaluation.
//! Turning the cache on or off changes *call counts*, never *values*;
//! hit/miss/insert counters flow to telemetry under the workspace's
//! "observe but never influence" rule (DESIGN.md §10).

use crate::checksum::Fnv1a;
use crate::LimitState;
use nofis_telemetry as tele;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards. Power of two; bounds lock
/// contention when many corner jobs share one cache.
const SHARDS: usize = 16;

/// The composed content-address: FNV-1a over the oracle id's bytes
/// followed by each coordinate's raw IEEE-754 bits (little-endian).
///
/// Exposed so tests and trace tooling can reproduce the key exactly.
/// This is a *locator*, not the identity — see the module docs.
#[must_use]
pub fn cache_key(oracle_id: u64, x: &[f64]) -> u64 {
    digest(oracle_id, x.iter().map(|xi| xi.to_bits()))
}

/// FNV-1a over the oracle id's bytes, then each bit-pattern word's bytes.
fn digest(oracle_id: u64, bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&oracle_id.to_le_bytes());
    for w in bits {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// A plain-`u64` pass-through hasher: map keys are already FNV-1a
/// digests, so re-hashing them would only discard avalanche quality.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher only accepts u64 keys");
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Full identity of one cached evaluation: the oracle id and the exact
/// bit pattern of the input vector. `Eq` on this struct is what makes a
/// 64-bit digest collision harmless.
#[derive(PartialEq, Eq)]
struct FullKey {
    oracle_id: u64,
    bits: Box<[u64]>,
}

impl std::hash::Hash for FullKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Re-derive the FNV digest so bucket placement is deterministic
        // across processes (std's default RandomState is not).
        state.write_u64(digest(self.oracle_id, self.bits.iter().copied()));
    }
}

/// One memoized evaluation. The gradient is optional: a `value`-only
/// entry cannot serve a `value_grad` request (that would silently drop
/// sensitivities), so such a request re-evaluates and upgrades the entry.
struct Entry {
    value: f64,
    grad: Option<Box<[f64]>>,
}

type Shard = Mutex<HashMap<FullKey, Entry, BuildHasherDefault<IdentityHasher>>>;

/// Monotonic counters describing cache traffic. Snapshot via
/// [`OracleCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (no simulator call).
    pub hits: u64,
    /// Lookups that fell through to the simulator.
    pub misses: u64,
    /// Entries written (first-time inserts and gradient upgrades).
    pub inserts: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, content-addressed store of oracle evaluations.
///
/// Share one instance (behind an `Arc`) across every job of a corner
/// sweep; key traffic by the family's oracle id so unrelated families
/// never alias. See the module docs for the key format and the
/// determinism contract.
///
/// # Example
///
/// ```
/// use nofis_prob::OracleCache;
///
/// let cache = OracleCache::new();
/// let x = [0.25, -1.5];
/// assert_eq!(cache.get_value(7, &x), None);
/// cache.insert_value(7, &x, 3.5);
/// assert_eq!(cache.get_value(7, &x), Some(3.5));
/// assert_eq!(cache.get_value(8, &x), None); // different oracle id
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct OracleCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl Default for OracleCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for OracleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleCache")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl OracleCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        OracleCache {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn shard(&self, digest: u64) -> &Shard {
        &self.shards[(digest as usize) & (SHARDS - 1)]
    }

    fn full_key(oracle_id: u64, x: &[f64]) -> FullKey {
        FullKey {
            oracle_id,
            bits: x.iter().map(|v| v.to_bits()).collect(),
        }
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if tele::enabled(tele::Level::Trace) {
            let name = if hit { "cache.hit" } else { "cache.miss" };
            tele::counter(tele::Level::Trace, name, 1).emit();
        }
    }

    /// Looks up a cached `g(x)` value. Counts a hit or miss.
    pub fn get_value(&self, oracle_id: u64, x: &[f64]) -> Option<f64> {
        let digest = cache_key(oracle_id, x);
        let key = Self::full_key(oracle_id, x);
        let found = self
            .shard(digest)
            .lock()
            .expect("cache shard poisoned")
            .get(&key)
            .map(|e| e.value);
        self.record(found.is_some());
        found
    }

    /// Looks up a cached `(g(x), ∇g(x))` pair. A value-only entry does
    /// **not** satisfy this request (counts as a miss); the caller should
    /// re-evaluate with gradients and upgrade via
    /// [`OracleCache::insert_value_grad`].
    pub fn get_value_grad(&self, oracle_id: u64, x: &[f64]) -> Option<(f64, Vec<f64>)> {
        let digest = cache_key(oracle_id, x);
        let key = Self::full_key(oracle_id, x);
        let found = self
            .shard(digest)
            .lock()
            .expect("cache shard poisoned")
            .get(&key)
            .and_then(|e| e.grad.as_ref().map(|g| (e.value, g.to_vec())));
        self.record(found.is_some());
        found
    }

    /// Stores a value-only evaluation. First write wins: re-inserting an
    /// existing key keeps the original entry (the first evaluation is the
    /// published bit pattern), but never downgrades a gradient entry.
    pub fn insert_value(&self, oracle_id: u64, x: &[f64], value: f64) {
        let digest = cache_key(oracle_id, x);
        let key = Self::full_key(oracle_id, x);
        let mut shard = self.shard(digest).lock().expect("cache shard poisoned");
        if let std::collections::hash_map::Entry::Vacant(slot) = shard.entry(key) {
            slot.insert(Entry { value, grad: None });
            drop(shard);
            self.note_insert();
        }
    }

    /// Stores (or upgrades to) a gradient-carrying evaluation. First
    /// gradient write wins; a value-only entry is upgraded in place
    /// keeping its original value bits.
    pub fn insert_value_grad(&self, oracle_id: u64, x: &[f64], value: f64, grad: &[f64]) {
        let digest = cache_key(oracle_id, x);
        let key = Self::full_key(oracle_id, x);
        let mut shard = self.shard(digest).lock().expect("cache shard poisoned");
        match shard.get_mut(&key) {
            Some(e) => {
                if e.grad.is_none() {
                    // Keep the published value bits; attach sensitivities.
                    e.grad = Some(grad.into());
                    drop(shard);
                    self.note_insert();
                }
            }
            None => {
                shard.insert(
                    key,
                    Entry {
                        value,
                        grad: Some(grad.into()),
                    },
                );
                drop(shard);
                self.note_insert();
            }
        }
    }

    fn note_insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if tele::enabled(tele::Level::Trace) {
            tele::counter(tele::Level::Trace, "cache.insert", 1).emit();
        }
    }

    /// Number of distinct entries currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the traffic counters. Pure read; never emits.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }
}

/// A [`LimitState`] wrapper that consults an [`OracleCache`] before
/// falling through to its inner oracle.
///
/// The inner oracle is the *miss path* — typically a
/// [`BudgetedOracle`](crate::BudgetedOracle), so cache hits are answered
/// **in front of** the budget meter and never charge it. (Putting the
/// cache inside the budget would charge hits: `BudgetedOracle` counts a
/// call before evaluating.)
///
/// # Example
///
/// ```
/// use nofis_prob::{BudgetedOracle, CachedOracle, LimitState, OracleCache};
/// use std::sync::Arc;
///
/// struct Sphere;
/// impl LimitState for Sphere {
///     fn dim(&self) -> usize { 2 }
///     fn value(&self, x: &[f64]) -> f64 { x[0] * x[0] + x[1] * x[1] - 1.0 }
/// }
///
/// let cache = Arc::new(OracleCache::new());
/// let budgeted = BudgetedOracle::new(&Sphere, 1);
/// let cached = CachedOracle::new(&budgeted, Arc::clone(&cache), 42);
/// let v1 = cached.value(&[0.5, 0.5]); // miss: charges the budget
/// let v2 = cached.value(&[0.5, 0.5]); // hit: free
/// assert_eq!(v1.to_bits(), v2.to_bits());
/// assert_eq!(budgeted.used(), 1);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct CachedOracle<T: LimitState> {
    inner: T,
    cache: std::sync::Arc<OracleCache>,
    oracle_id: u64,
}

impl<T: LimitState> CachedOracle<T> {
    /// Wraps `inner` (the miss path) with a shared cache under
    /// `oracle_id`. Callers must ensure the id uniquely identifies the
    /// *function being cached* — two oracles sharing an id must be the
    /// same function, or hits will serve one oracle the other's values.
    pub fn new(inner: T, cache: std::sync::Arc<OracleCache>, oracle_id: u64) -> Self {
        CachedOracle {
            inner,
            cache,
            oracle_id,
        }
    }

    /// The shared cache.
    #[must_use]
    pub fn cache(&self) -> &std::sync::Arc<OracleCache> {
        &self.cache
    }

    /// The oracle id this wrapper keys its traffic under.
    #[must_use]
    pub fn oracle_id(&self) -> u64 {
        self.oracle_id
    }

    /// Borrows the miss-path oracle.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: LimitState> LimitState for CachedOracle<T> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        if let Some(v) = self.cache.get_value(self.oracle_id, x) {
            return v;
        }
        let v = self.inner.value(x);
        self.cache.insert_value(self.oracle_id, x, v);
        v
    }

    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        if let Some(vg) = self.cache.get_value_grad(self.oracle_id, x) {
            return vg;
        }
        let (v, g) = self.inner.value_grad(x);
        self.cache.insert_value_grad(self.oracle_id, x, v, &g);
        (v, g)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BudgetedOracle, CountingOracle};
    use std::sync::Arc;

    struct Paraboloid;
    impl LimitState for Paraboloid {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + 0.5 * x[1] - 1.0
        }
        fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            (self.value(x), vec![2.0 * x[0], 0.5])
        }
        fn name(&self) -> &str {
            "paraboloid"
        }
    }

    #[test]
    fn hit_returns_first_evaluation_bitwise() {
        let cache = Arc::new(OracleCache::new());
        let counting = CountingOracle::new(&Paraboloid);
        let cached = CachedOracle::new(&counting, Arc::clone(&cache), 1);
        let x = [0.123_456_789, -2.5];
        let v1 = cached.value(&x);
        let v2 = cached.value(&x);
        assert_eq!(v1.to_bits(), v2.to_bits());
        assert_eq!(counting.calls(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hits_never_charge_the_budget() {
        let cache = Arc::new(OracleCache::new());
        let budgeted = BudgetedOracle::new(&Paraboloid, 2);
        let cached = CachedOracle::new(&budgeted, Arc::clone(&cache), 9);
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let _ = cached.value(&a); // miss -> charges
        for _ in 0..10 {
            let _ = cached.value(&a); // hits -> free
        }
        let _ = cached.value(&b); // miss -> charges
        assert_eq!(budgeted.used(), 2);
        assert!(budgeted.is_exhausted());
        // Exhausted budget, but cached points still answer.
        assert!(cached.value(&a).is_finite());
        assert_eq!(budgeted.overruns(), 0);
    }

    #[test]
    fn value_only_entry_does_not_serve_value_grad() {
        let cache = Arc::new(OracleCache::new());
        let counting = CountingOracle::new(&Paraboloid);
        let cached = CachedOracle::new(&counting, Arc::clone(&cache), 3);
        let x = [0.5, 0.5];
        let v = cached.value(&x);
        // Gradient request misses (value-only entry), re-evaluates, and
        // upgrades the entry in place.
        let (vg, g) = cached.value_grad(&x);
        assert_eq!(counting.calls(), 2);
        assert_eq!(v.to_bits(), vg.to_bits());
        assert_eq!(g, vec![1.0, 0.5]);
        // Upgraded entry now serves both shapes for free.
        let _ = cached.value(&x);
        let _ = cached.value_grad(&x);
        assert_eq!(counting.calls(), 2);
        assert_eq!(cache.len(), 1, "upgrade must not duplicate the entry");
    }

    #[test]
    fn oracle_ids_partition_the_namespace() {
        let cache = OracleCache::new();
        let x = [1.0];
        cache.insert_value(1, &x, 10.0);
        cache.insert_value(2, &x, 20.0);
        assert_eq!(cache.get_value(1, &x), Some(10.0));
        assert_eq!(cache.get_value(2, &x), Some(20.0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn signed_zeros_are_distinct_entries() {
        let cache = OracleCache::new();
        cache.insert_value(0, &[0.0], 1.0);
        cache.insert_value(0, &[-0.0], 2.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get_value(0, &[0.0]), Some(1.0));
        assert_eq!(cache.get_value(0, &[-0.0]), Some(2.0));
        assert_ne!(cache_key(0, &[0.0]), cache_key(0, &[-0.0]));
    }

    #[test]
    fn nan_payloads_are_distinct_entries() {
        let cache = OracleCache::new();
        let quiet = f64::from_bits(0x7ff8_0000_0000_0001);
        let other = f64::from_bits(0x7ff8_0000_0000_0002);
        assert!(quiet.is_nan() && other.is_nan());
        cache.insert_value(0, &[quiet], 1.0);
        cache.insert_value(0, &[other], 2.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get_value(0, &[quiet]), Some(1.0));
        assert_eq!(cache.get_value(0, &[other]), Some(2.0));
    }

    #[test]
    fn first_insert_wins() {
        let cache = OracleCache::new();
        let x = [5.0];
        cache.insert_value(0, &x, 1.0);
        cache.insert_value(0, &x, 999.0);
        assert_eq!(cache.get_value(0, &x), Some(1.0));
        cache.insert_value_grad(0, &x, 999.0, &[7.0]);
        // Value bits survive the gradient upgrade.
        assert_eq!(cache.get_value(0, &x), Some(1.0));
        assert_eq!(cache.get_value_grad(0, &x), Some((1.0, vec![7.0])));
    }

    #[test]
    fn key_is_order_and_length_sensitive() {
        assert_ne!(cache_key(0, &[1.0, 2.0]), cache_key(0, &[2.0, 1.0]));
        assert_ne!(cache_key(0, &[1.0]), cache_key(0, &[1.0, 0.0]));
        assert_ne!(cache_key(0, &[]), cache_key(1, &[]));
        // FNV-1a of the empty input under id 0: eight zero bytes mixed in.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(cache_key(0, &[]), h);
    }

    #[test]
    fn concurrent_mixed_traffic_is_consistent() {
        let cache = Arc::new(OracleCache::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let x = [(i % 50) as f64, t as f64 % 2.0];
                    if let Some(v) = cache.get_value(7, &x) {
                        assert_eq!(v, x[0] + x[1]);
                    } else {
                        cache.insert_value(7, &x, x[0] + x[1]);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 50 distinct x[0] values × 2 distinct x[1] values.
        assert_eq!(cache.len(), 100);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 800);
    }
}

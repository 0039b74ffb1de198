//! Wide (shuffle) transformations over keyed datasets.
//!
//! This is the reduce side of the paper's methodology: grouping-set keys
//! (Table 2) are hashed to reduce partitions, and per-key statistics are
//! combined map-side first (`aggregate_by_key`'s `seq` operator) then
//! merged across partitions (`comb` operator) — Spark's `aggregateByKey`
//! contract, which is exactly what makes `pol-sketch`'s mergeable
//! statistics partition-invariant.
//!
//! Like the narrow transformations, every shuffle returns `Result`: a
//! panic inside a user-supplied operator is reported as an
//! [`EngineError`] instead of aborting the process.

use crate::dataset::Dataset;
use crate::error::EngineError;
use crate::metrics::StageReport;
use crate::Engine;
use pol_sketch::hash::{hash64, FxHashMap, FxHashSet};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

/// A dataset of `(K, V)` pairs supporting shuffles and keyed aggregation.
pub struct KeyedDataset<K, V> {
    inner: Dataset<(K, V)>,
}

impl<K, V> KeyedDataset<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + 'static,
{
    /// Wraps a pair dataset.
    pub fn from_dataset(inner: Dataset<(K, V)>) -> Self {
        KeyedDataset { inner }
    }

    /// The underlying pair dataset.
    pub fn into_inner(self) -> Dataset<(K, V)> {
        self.inner
    }

    /// Total record count.
    pub fn count(&self) -> usize {
        self.inner.count()
    }

    /// Hash-partitions records so all pairs of one key land in the same
    /// partition (the shuffle). Deterministic: uses the workspace's FxHash.
    pub fn partition_by_key(
        self,
        engine: &Engine,
        stage: &str,
        num_partitions: usize,
    ) -> Result<Self, EngineError> {
        let num = num_partitions.max(1);
        let started = Instant::now();
        let input_records = self.inner.count() as u64;
        // Map side: split every input partition into `num` buckets.
        let bucketed: Vec<Vec<Vec<(K, V)>>> =
            engine.run_tasks(stage, self.inner.into_partitions(), move |_, part| {
                let mut buckets: Vec<Vec<(K, V)>> = (0..num).map(|_| Vec::new()).collect();
                for (k, v) in part {
                    let b = (hash64(&k) % num as u64) as usize;
                    buckets[b].push((k, v));
                }
                buckets
            })?;
        // Reduce side: transpose-concatenate bucket b of every map output.
        let mut out: Vec<Vec<(K, V)>> = (0..num).map(|_| Vec::new()).collect();
        for map_out in bucketed {
            for (b, bucket) in map_out.into_iter().enumerate() {
                out[b].extend(bucket);
            }
        }
        let result = Dataset::from_partitions(out);
        engine.metrics().record(StageReport {
            name: stage.to_string(),
            input_records,
            output_records: result.count() as u64,
            shuffled_records: input_records,
            wall: started.elapsed(),
        });
        Ok(KeyedDataset { inner: result })
    }

    /// Spark's `aggregateByKey`: builds a per-key accumulator with `seq`
    /// map-side (one pass per input partition, combiner style), shuffles the
    /// combiners, then merges them with `comb`.
    ///
    /// Correctness requires `comb` to be commutative and associative, and
    /// `seq`/`comb` to agree (folding values then combining must equal
    /// folding all values into one accumulator) — the [`pol_sketch`]
    /// statistics satisfy this by construction.
    pub fn aggregate_by_key<A, Z, S, C>(
        self,
        engine: &Engine,
        stage: &str,
        zero: Z,
        seq: S,
        comb: C,
    ) -> Result<Dataset<(K, A)>, EngineError>
    where
        A: Send + 'static,
        Z: Fn() -> A + Send + Sync + 'static,
        S: Fn(&mut A, V) + Send + Sync + 'static,
        C: Fn(&mut A, A) + Send + Sync + 'static,
    {
        let started = Instant::now();
        let input_records = self.inner.count() as u64;
        let num = engine.default_partitions();
        let zero = Arc::new(zero);
        let seq = Arc::new(seq);

        // Map side: per-partition combiners, radix-partitioned into `num`
        // shards *inside the worker* so the driver never touches
        // individual entries — it only moves shard pointers.
        let z1 = zero.clone();
        let s1 = seq.clone();
        let sharded: Vec<Vec<Vec<(K, A)>>> =
            engine.run_tasks(stage, self.inner.into_partitions(), move |_, part| {
                let mut acc: FxHashMap<K, A> = FxHashMap::default();
                for (k, v) in part {
                    s1(acc.entry(k).or_insert_with(|| z1()), v);
                }
                radix_partition(acc, num)
            })?;
        let shuffled: u64 = sharded
            .iter()
            .flat_map(|w| w.iter())
            .map(|s| s.len() as u64)
            .sum();

        // Reduce side: one parallel merge task per shard.
        let result = merge_combiner_shards(engine, stage, sharded, comb)?;
        engine.metrics().record(StageReport {
            name: stage.to_string(),
            input_records,
            output_records: result.count() as u64,
            shuffled_records: shuffled,
            wall: started.elapsed(),
        });
        Ok(result)
    }

    /// `reduceByKey`: aggregation where the accumulator is the value type.
    pub fn reduce_by_key<F>(
        self,
        engine: &Engine,
        stage: &str,
        f: F,
    ) -> Result<Dataset<(K, V)>, EngineError>
    where
        V: Clone,
        F: Fn(&mut V, V) + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let f2 = f.clone();
        self.aggregate_by_key(
            engine,
            stage,
            || None::<V>,
            move |acc, v| match acc {
                Some(a) => f(a, v),
                None => *acc = Some(v),
            },
            move |acc, other| match (acc.as_mut(), other) {
                (Some(a), Some(o)) => f2(a, o),
                (None, o) => *acc = o,
                (_, None) => {}
            },
        )?
        // An accumulator exists only for keys that saw a value, so `None`
        // is unreachable and the flatten drops nothing.
        .flat_map(engine, &format!("{stage}:unwrap"), |(k, v)| {
            v.map(|v| (k, v))
        })
    }

    /// `groupByKey`: collects all values per key (use `aggregate_by_key`
    /// when a bounded accumulator exists — same advice as Spark's docs).
    pub fn group_by_key(
        self,
        engine: &Engine,
        stage: &str,
    ) -> Result<Dataset<(K, Vec<V>)>, EngineError> {
        self.aggregate_by_key(
            engine,
            stage,
            Vec::new,
            |acc, v| acc.push(v),
            |acc, mut other| acc.append(&mut other),
        )
    }

    /// Number of distinct keys.
    pub fn count_keys(self, engine: &Engine, stage: &str) -> Result<usize, EngineError> {
        Ok(self
            .aggregate_by_key(engine, stage, || (), |_, _| (), |_, _| ())?
            .count())
    }

    /// Inner join on key with `other` (both sides shuffled to the same
    /// partitioning).
    pub fn join<W>(
        self,
        engine: &Engine,
        stage: &str,
        other: KeyedDataset<K, W>,
    ) -> Result<Dataset<(K, (V, W))>, EngineError>
    where
        V: Clone,
        W: Clone + Send + 'static,
    {
        let started = Instant::now();
        let input_records = (self.count() + other.count()) as u64;
        let num = engine.default_partitions();
        let left = self
            .partition_by_key(engine, &format!("{stage}:shuffle-left"), num)?
            .inner
            .into_partitions();
        let right = other
            .partition_by_key(engine, &format!("{stage}:shuffle-right"), num)?
            .inner
            .into_partitions();
        let zipped: Vec<(Vec<(K, V)>, Vec<(K, W)>)> = left.into_iter().zip(right).collect();
        let joined: Vec<Vec<(K, (V, W))>> = engine.run_tasks(stage, zipped, |_, (l, r)| {
            let mut by_key: FxHashMap<K, Vec<W>> = FxHashMap::default();
            for (k, w) in r {
                by_key.entry(k).or_default().push(w);
            }
            // How many left records still need each key: the last use
            // consumes the right-side values instead of cloning them,
            // and the final pair of every record moves `k`/`v` outright
            // (a 1:1 join therefore clones nothing in this loop).
            let mut remaining: FxHashMap<K, usize> = FxHashMap::default();
            for (k, _) in &l {
                if let Some(n) = remaining.get_mut(k) {
                    *n += 1;
                } else if by_key.contains_key(k) {
                    remaining.insert(k.clone(), 1);
                }
            }
            let mut out = Vec::new();
            for (k, v) in l {
                let Some(n) = remaining.get_mut(&k) else {
                    continue; // no match on the right
                };
                *n -= 1;
                if *n == 0 {
                    let mut ws = by_key.remove(&k).unwrap_or_default();
                    if let Some(w_last) = ws.pop() {
                        for w in ws {
                            out.push((k.clone(), (v.clone(), w)));
                        }
                        out.push((k, (v, w_last)));
                    }
                } else if let Some(ws) = by_key.get(&k) {
                    if let Some((w_last, init)) = ws.split_last() {
                        for w in init {
                            out.push((k.clone(), (v.clone(), w.clone())));
                        }
                        out.push((k, (v, w_last.clone())));
                    }
                }
            }
            out
        })?;
        let result = Dataset::from_partitions(joined);
        engine.metrics().record(StageReport {
            name: stage.to_string(),
            input_records,
            output_records: result.count() as u64,
            shuffled_records: input_records,
            wall: started.elapsed(),
        });
        Ok(result)
    }
}

/// Radix-partitions a combiner map into `shards` buckets by key hash —
/// the map side of the two-phase parallel merge. Entries keep the map's
/// iteration order within each bucket, which keeps downstream merges
/// deterministic for a deterministic input partitioning.
///
/// Two passes: a counting pass sizes every bucket exactly, so the scatter
/// pass never reallocates (the classic radix-sort layout; with 32 shards a
/// growth-doubling scatter was a measurable share of build-phase
/// allocations).
pub fn radix_partition<K, A>(acc: FxHashMap<K, A>, shards: usize) -> Vec<Vec<(K, A)>>
where
    K: Eq + Hash,
{
    let shards = shards.max(1);
    let mut counts = vec![0usize; shards];
    for k in acc.keys() {
        counts[(hash64(k) % shards as u64) as usize] += 1;
    }
    let mut out: Vec<Vec<(K, A)>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (k, a) in acc {
        let b = (hash64(&k) % shards as u64) as usize;
        out[b].push((k, a));
    }
    out
}

/// Merges radix-partitioned combiner shards in parallel — the reduce side
/// of the two-phase aggregation. `sharded[w][s]` is worker `w`'s shard
/// `s`; shard `s` of every worker goes to one merge task, so the merge
/// scales with cores instead of serializing on the driver.
///
/// Returns one map per shard, in shard order: key `k` is in map
/// `hash64(k) % maps.len()`, the rule [`radix_partition`] scattered by.
/// The maps are the merge tasks' own accumulators, handed back as they
/// are, so a caller that keeps them (`pol-core`'s `Inventory`) never
/// copies a value after the merge. Each map is sized for its shard's
/// distinct keys before the first value moves in, so no accumulator is
/// moved by a rehash: sizing it from the shard's largest input bucket
/// alone still left two doublings on a 60-vessel, 7-day `polbuild`
/// run (largest bucket 122–169 entries, merged shard 620–763).
///
/// Per key, combiners merge in worker-index order — exactly the order a
/// sequential driver-side scatter would have produced — so the result is
/// bit-identical to the pre-radix implementation (and thread-count
/// invariant whenever the map-side partitioning is data-determined).
///
/// Records a `{stage}:radix-merge` [`StageReport`] so the parallel merge
/// is visible in [`crate::JobMetrics`] stage timings.
pub fn merge_combiner_maps<K, A, C>(
    engine: &Engine,
    stage: &str,
    sharded: Vec<Vec<Vec<(K, A)>>>,
    comb: C,
) -> Result<Vec<FxHashMap<K, A>>, EngineError>
where
    K: Eq + Hash + Send + 'static,
    A: Send + 'static,
    C: Fn(&mut A, A) + Send + Sync + 'static,
{
    let started = Instant::now();
    let shards = sharded.iter().map(Vec::len).max().unwrap_or(0);
    let input_records: u64 = sharded
        .iter()
        .flat_map(|w| w.iter())
        .map(|s| s.len() as u64)
        .sum();
    // Transpose: gather shard `s` of every worker, in worker order.
    // Pointer moves only — the driver never touches individual entries.
    let mut transposed: Vec<Vec<Vec<(K, A)>>> = (0..shards).map(|_| Vec::new()).collect();
    for worker in sharded {
        for (s, shard) in worker.into_iter().enumerate() {
            transposed[s].push(shard);
        }
    }
    // Errors keep the caller's stage name; only the metrics row carries
    // the `:radix-merge` suffix.
    let merge_stage = format!("{stage}:radix-merge");
    let reduced: Vec<FxHashMap<K, A>> =
        engine.run_tasks(stage, transposed, move |_, buckets| {
            // Size the map for the shard's distinct keys before any value
            // moves in: a map that grows rehashes, moving every accumulator
            // it holds. Counting keys touches only the small keys.
            let distinct = {
                let largest = buckets.iter().map(Vec::len).max().unwrap_or(0);
                let mut keys: FxHashSet<&K> =
                    FxHashSet::with_capacity_and_hasher(largest, Default::default());
                for bucket in &buckets {
                    keys.extend(bucket.iter().map(|(k, _)| k));
                }
                keys.len()
            };
            let mut acc: FxHashMap<K, A> =
                FxHashMap::with_capacity_and_hasher(distinct, Default::default());
            for bucket in buckets {
                for (k, a) in bucket {
                    match acc.entry(k) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            comb(e.get_mut(), a);
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(a);
                        }
                    }
                }
            }
            acc
        })?;
    engine.metrics().record(StageReport {
        name: merge_stage,
        input_records,
        output_records: reduced.iter().map(FxHashMap::len).sum::<usize>() as u64,
        shuffled_records: input_records,
        wall: started.elapsed(),
    });
    Ok(reduced)
}

/// [`merge_combiner_maps`] with every merged map flattened into a
/// [`Dataset`] partition, one task per shard — the shape the staged
/// `aggregate_by_key` returns.
pub fn merge_combiner_shards<K, A, C>(
    engine: &Engine,
    stage: &str,
    sharded: Vec<Vec<Vec<(K, A)>>>,
    comb: C,
) -> Result<Dataset<(K, A)>, EngineError>
where
    K: Eq + Hash + Send + 'static,
    A: Send + 'static,
    C: Fn(&mut A, A) + Send + Sync + 'static,
{
    let maps = merge_combiner_maps(engine, stage, sharded, comb)?;
    let parts = engine.run_tasks(stage, maps, |_, map| map.into_iter().collect())?;
    Ok(Dataset::from_partitions(parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words() -> Vec<(&'static str, u64)> {
        let text = "the quick brown fox jumps over the lazy dog the fox";
        text.split(' ').map(|w| (w, 1u64)).collect()
    }

    #[test]
    fn word_count_via_reduce_by_key() {
        let e = Engine::new(4);
        let d = Dataset::from_vec(words(), 3).into_keyed();
        let mut out = d.reduce_by_key(&e, "wc", |a, b| *a += b).unwrap().collect();
        out.sort();
        let the = out.iter().find(|(w, _)| *w == "the").unwrap();
        assert_eq!(the.1, 3);
        let fox = out.iter().find(|(w, _)| *w == "fox").unwrap();
        assert_eq!(fox.1, 2);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn partition_by_key_collocates() {
        let e = Engine::new(4);
        let data: Vec<(u32, u32)> = (0..200).map(|i| (i % 10, i)).collect();
        let shuffled = Dataset::from_vec(data, 7)
            .into_keyed()
            .partition_by_key(&e, "shuffle", 4)
            .unwrap();
        let parts = shuffled.into_inner().into_partitions();
        assert_eq!(parts.len(), 4);
        // Every key appears in exactly one partition.
        let mut seen: std::collections::HashMap<u32, usize> = Default::default();
        for (pi, p) in parts.iter().enumerate() {
            for (k, _) in p {
                if let Some(prev) = seen.insert(*k, pi) {
                    assert_eq!(prev, pi, "key {k} split across partitions");
                }
            }
        }
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 200);
    }

    #[test]
    fn aggregate_by_key_counts_and_sums() {
        let e = Engine::new(3);
        let data: Vec<(u8, f64)> = (0..1000).map(|i| ((i % 5) as u8, i as f64)).collect();
        let expect_sum: f64 = (0..1000).filter(|i| i % 5 == 2).map(|i| i as f64).sum();
        let out = Dataset::from_vec(data, 8)
            .into_keyed()
            .aggregate_by_key(
                &e,
                "agg",
                || (0u64, 0.0f64),
                |acc, v| {
                    acc.0 += 1;
                    acc.1 += v;
                },
                |acc, o| {
                    acc.0 += o.0;
                    acc.1 += o.1;
                },
            )
            .unwrap()
            .collect();
        assert_eq!(out.len(), 5);
        let two = out.iter().find(|(k, _)| *k == 2).unwrap();
        assert_eq!(two.1 .0, 200);
        assert!((two.1 .1 - expect_sum).abs() < 1e-9);
    }

    #[test]
    fn group_by_key_collects_all() {
        let e = Engine::new(2);
        let d = Dataset::from_vec(vec![(1, "a"), (2, "b"), (1, "c")], 2).into_keyed();
        let mut out = d.group_by_key(&e, "group").unwrap().collect();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out.len(), 2);
        let mut ones = out[0].1.clone();
        ones.sort();
        assert_eq!(ones, vec!["a", "c"]);
    }

    #[test]
    fn count_keys_counts_distinct() {
        let e = Engine::new(2);
        let d =
            Dataset::from_vec((0..100u32).map(|i| (i % 7, i)).collect::<Vec<_>>(), 5).into_keyed();
        assert_eq!(d.count_keys(&e, "keys").unwrap(), 7);
    }

    #[test]
    fn join_inner() {
        let e = Engine::new(2);
        let left = Dataset::from_vec(vec![(1, "l1"), (2, "l2"), (3, "l3")], 2).into_keyed();
        let right = Dataset::from_vec(vec![(2, "r2a"), (2, "r2b"), (4, "r4")], 2).into_keyed();
        let mut out = left.join(&e, "join", right).unwrap().collect();
        out.sort();
        assert_eq!(out, vec![(2, ("l2", "r2a")), (2, ("l2", "r2b"))]);
    }

    #[test]
    fn key_by_builds_pairs() {
        let e = Engine::new(2);
        let d = Dataset::from_vec(vec!["aa", "b", "ccc"], 2);
        let keyed = d.key_by(&e, "len", |s| s.len()).unwrap();
        let mut out = keyed.into_inner().collect();
        out.sort();
        assert_eq!(out, vec![(1, "b"), (2, "aa"), (3, "ccc")]);
    }

    #[test]
    fn shuffle_metrics_recorded() {
        let e = Engine::new(2);
        let d =
            Dataset::from_vec((0..50u32).map(|i| (i % 3, i)).collect::<Vec<_>>(), 4).into_keyed();
        let _ = d.partition_by_key(&e, "the-shuffle", 2).unwrap();
        let stages = e.metrics().report();
        let s = stages.iter().find(|s| s.name == "the-shuffle").unwrap();
        assert_eq!(s.shuffled_records, 50);
    }

    #[test]
    fn join_duplicate_keys_preserve_order_and_multiplicity() {
        let e = Engine::new(2);
        // Two left records with the same key, three right values: 6 pairs,
        // each left record fanned out over the right values in order.
        let left = Dataset::from_vec(vec![(7u32, "a"), (7, "b")], 1).into_keyed();
        let right = Dataset::from_vec(vec![(7u32, 1), (7, 2), (7, 3)], 1).into_keyed();
        let out = left.join(&e, "dupjoin", right).unwrap().collect();
        assert_eq!(
            out,
            vec![
                (7, ("a", 1)),
                (7, ("a", 2)),
                (7, ("a", 3)),
                (7, ("b", 1)),
                (7, ("b", 2)),
                (7, ("b", 3)),
            ]
        );
    }

    #[test]
    fn radix_partition_covers_all_entries() {
        let mut m: FxHashMap<u32, u64> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert(i, u64::from(i) * 2);
        }
        let shards = radix_partition(m, 7);
        assert_eq!(shards.len(), 7);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 100);
        for shard in &shards {
            for (k, _) in shard {
                // Entry landed in the shard its hash selects.
                let want = (hash64(k) % 7) as usize;
                assert!(shards[want].iter().any(|(k2, _)| k2 == k));
            }
        }
        // Zero shards is clamped to one.
        let shards = radix_partition(FxHashMap::<u32, u64>::default(), 0);
        assert_eq!(shards.len(), 1);
    }

    #[test]
    fn aggregate_records_radix_merge_stage() {
        let e = Engine::new(2);
        let d = Dataset::from_vec((0..50u32).map(|i| (i % 3, 1u64)).collect::<Vec<_>>(), 4)
            .into_keyed();
        let _ = d.reduce_by_key(&e, "agg", |a, b| *a += b).unwrap();
        let stages = e.metrics().report();
        let merge = stages.iter().find(|s| s.name == "agg:radix-merge");
        assert!(merge.is_some(), "radix merge stage visible in metrics");
        assert_eq!(merge.map(|s| s.output_records), Some(3));
    }

    #[test]
    fn merge_combiner_shards_merges_in_worker_order() {
        let e = Engine::new(2);
        // Two workers, one shard each: worker order must be preserved, so
        // string concatenation (non-commutative) detects reordering.
        let sharded = vec![
            vec![vec![(1u32, "a".to_string())]],
            vec![vec![(1u32, "b".to_string())]],
        ];
        let out = merge_combiner_shards(&e, "mo", sharded, |a: &mut String, o: String| {
            a.push_str(&o);
        })
        .unwrap()
        .collect();
        assert_eq!(out, vec![(1, "ab".to_string())]);
    }

    #[test]
    fn merge_combiner_maps_keeps_the_radix_shard_of_every_key() {
        let e = Engine::new(2);
        // Three workers with overlapping keys, radix-partitioned the way
        // the map side does it.
        let sharded: Vec<Vec<Vec<(u32, String)>>> = (0..3u32)
            .map(|w| {
                let acc: FxHashMap<u32, String> =
                    (0..40).map(|k| (k * (w + 1), w.to_string())).collect();
                radix_partition(acc, 5)
            })
            .collect();
        let maps = merge_combiner_maps(&e, "maps", sharded, |a: &mut String, o: String| {
            a.push_str(&o);
        })
        .unwrap();
        assert_eq!(maps.len(), 5);
        for (s, map) in maps.iter().enumerate() {
            for k in map.keys() {
                assert_eq!((hash64(k) % 5) as usize, s, "key {k} left its shard");
            }
        }
        // Worker order within a key; distinct keys counted once.
        let find = |k: u32| maps.iter().find_map(|m| m.get(&k)).cloned();
        assert_eq!(find(0).as_deref(), Some("012"));
        assert_eq!(find(2).as_deref(), Some("01"));
        assert_eq!(find(117).as_deref(), Some("2"));
        let distinct: std::collections::HashSet<u32> = (0..3u32)
            .flat_map(|w| (0..40).map(move |k| k * (w + 1)))
            .collect();
        assert_eq!(
            maps.iter().map(FxHashMap::len).sum::<usize>(),
            distinct.len()
        );
        let stages = e.metrics().report();
        let merge = stages.iter().find(|s| s.name == "maps:radix-merge");
        assert_eq!(merge.map(|s| s.output_records), Some(distinct.len() as u64));
    }

    #[test]
    fn panicking_combiner_surfaces_as_error() {
        let e = Engine::new(2);
        let d = Dataset::from_vec(words(), 3).into_keyed();
        let err = d
            .reduce_by_key(&e, "explode", |_, _| panic!("combiner bug"))
            .unwrap_err();
        assert_eq!(err.stage, "explode");
    }
}

//! Incremental result cache keyed by content hashes of sweep points.
//!
//! The key hashes the canonical JSON of everything that can change a
//! point's result: the engine version, the scenario's code-relevant
//! knobs (application, machine, sizes, faults), and the
//! point's own axis values. The cosmetic scenario `name` is excluded,
//! so renaming a sweep keeps its cache warm, while editing any knob
//! changes every affected key and forces re-execution.
//!
//! The cache is safe for concurrent use from many threads (and many
//! processes sharing a directory, e.g. the `tlb-serve` daemon next to
//! an offline `tlb-run sweep`):
//!
//! * every entry stores the canonical key-input object it was hashed
//!   from, and [`Cache::load`] verifies it against the reader's own
//!   key input — an FNV collision or a stale/corrupt entry reads as a
//!   miss instead of deserializing garbage into the wrong point;
//! * writes go through a *uniquely named* temporary file (pid plus a
//!   process-wide sequence number) and an atomic rename, so parallel
//!   writers to the same key can never observe or publish a torn file
//!   — last rename wins, and both writers wrote the same bytes anyway.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tlb_json::Value;

use crate::scenario::{Scenario, SweepPoint};

/// Bumped whenever the simulator's observable behaviour changes, so
/// stale caches from older engine builds can never be replayed as
/// current results. Version 3: point keys carry the canonical policy
/// string (name *plus* parameters) instead of the bare policy name.
pub const ENGINE_VERSION: u64 = 3;

/// 64-bit FNV-1a over a byte string: tiny, dependency-free, and stable
/// across platforms — exactly what a content-addressed cache key needs
/// (collisions are harmless: the stored key input is verified on read,
/// so a colliding entry costs one re-run, never a wrong result).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical key-input object of one scenario point: the compact
/// JSON of everything code-relevant. [`point_key`] hashes it, and the
/// cache stores it verbatim inside each entry so reads can verify the
/// entry really belongs to the requested point.
pub fn point_key_input(scenario: &Scenario, point: &SweepPoint) -> Value {
    let mut fields = vec![
        ("engine_version", ENGINE_VERSION.into()),
        ("app", scenario.app.name().into()),
        ("machine", scenario.machine.name().into()),
        ("nodes", scenario.nodes.into()),
        ("iterations", scenario.iterations.into()),
        ("imbalance", scenario.imbalance.into()),
        ("appranks_per_node", point.appranks_per_node.into()),
        ("degree", point.degree.into()),
        // The *canonical* policy string, never the bare name: two
        // parameterizations of one policy must never share a key, and
        // two spellings of one parameterization always must.
        ("policy", point.policy.canonical().as_str().into()),
        ("seed", point.seed.into()),
    ];
    if let Some(f) = &scenario.faults {
        fields.push(("faults", f.as_str().into()));
        fields.push(("fault_seed", scenario.fault_seed.into()));
    }
    Value::object(fields)
}

/// The cache key of one scenario point: FNV-1a over the canonical
/// compact JSON of the code-relevant configuration.
pub fn point_key(scenario: &Scenario, point: &SweepPoint) -> u64 {
    fnv1a64(
        point_key_input(scenario, point)
            .to_string_compact()
            .as_bytes(),
    )
}

/// Process-wide tmp-file sequence so concurrent writers (threads of the
/// serve daemon, sweep pool workers) never share a temporary name.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of per-point result files, named by their hex cache key.
///
/// Entries are JSON objects `{"key_input": ..., "record": ...}`; the
/// `key_input` is verified on load (see the module docs).
#[derive(Clone, Debug)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Open (creating if needed, parents included) a cache directory.
    pub fn open(dir: &Path) -> io::Result<Cache> {
        std::fs::create_dir_all(dir)?;
        Ok(Cache {
            dir: dir.to_path_buf(),
        })
    }

    /// The file a key lives in.
    pub fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Fetch a cached point result, verifying that the entry's stored
    /// key input matches `key_input`. Any unreadable, unparseable,
    /// truncated, or mismatching entry (FNV collision, stale engine)
    /// reads as a miss, so corruption costs one re-run, not an error —
    /// and never a silently wrong record.
    pub fn load(&self, key: u64, key_input: &Value) -> Option<Value> {
        let text = std::fs::read_to_string(self.path_of(key)).ok()?;
        let entry = tlb_json::parse(&text).ok()?;
        if entry.get("key_input") != key_input {
            return None;
        }
        match entry.get("record") {
            Value::Null => None,
            record => Some(record.clone()),
        }
    }

    /// Store a point result together with its key input. Written via a
    /// uniquely named temporary file and an atomic rename, so a crash
    /// mid-write cannot leave a truncated entry behind and concurrent
    /// writers to the same key cannot publish each other's partial
    /// bytes.
    pub fn store(&self, key: u64, key_input: &Value, value: &Value) -> io::Result<()> {
        let path = self.path_of(key);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{key:016x}.{}.{}.tmp", std::process::id(), seq));
        let entry = Value::object(vec![
            ("key_input", key_input.clone()),
            ("record", value.clone()),
        ]);
        std::fs::write(&tmp, entry.to_string_pretty())?;
        std::fs::rename(&tmp, &path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_core::PolicySpec;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn point(sc: &Scenario) -> SweepPoint {
        sc.expand().into_iter().next().unwrap()
    }

    #[test]
    fn key_ignores_name_but_sees_knobs() {
        let sc = Scenario::default();
        let mut renamed = sc.clone();
        renamed.name = "other".into();
        assert_eq!(
            point_key(&sc, &point(&sc)),
            point_key(&renamed, &point(&renamed))
        );

        let mut more_iters = sc.clone();
        more_iters.iterations += 1;
        assert_ne!(
            point_key(&sc, &point(&sc)),
            point_key(&more_iters, &point(&more_iters))
        );

        let mut faulty = sc.clone();
        faulty.faults = Some("delay@0.1".into());
        assert_ne!(
            point_key(&sc, &point(&sc)),
            point_key(&faulty, &point(&faulty))
        );
    }

    #[test]
    fn key_separates_points() {
        let mut sc = Scenario::default();
        sc.axes.policy = vec![
            PolicySpec::named("baseline").unwrap(),
            PolicySpec::named("lewi").unwrap(),
        ];
        sc.axes.seed = vec![1, 2];
        let pts = sc.expand();
        let mut keys: Vec<u64> = pts.iter().map(|p| point_key(&sc, p)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), pts.len(), "colliding point keys");
    }

    #[test]
    fn key_sees_policy_parameters() {
        // Two parameterizations of one policy must never collide, and
        // two spellings of one parameterization must always agree.
        let mut sc = Scenario::default();
        sc.axes.policy = vec![PolicySpec::parse("reactive-offload").unwrap()];
        let base = point_key(&sc, &point(&sc));
        let mut tuned = sc.clone();
        tuned.axes.policy = vec![PolicySpec::parse("reactive-offload(hi=0.4)").unwrap()];
        assert_ne!(base, point_key(&tuned, &point(&tuned)));
        let mut spelled = sc.clone();
        spelled.axes.policy =
            vec![PolicySpec::parse("reactive-offload(hi=0.25, lo=0.1, unit=1)").unwrap()];
        assert_eq!(base, point_key(&spelled, &point(&spelled)));
    }

    fn temp_cache(tag: &str) -> (PathBuf, Cache) {
        let dir =
            std::env::temp_dir().join(format!("tlb_sweep_cache_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        (dir, cache)
    }

    #[test]
    fn cache_round_trips_and_survives_garbage() {
        let (dir, cache) = temp_cache("roundtrip");
        let sc = Scenario::default();
        let input = point_key_input(&sc, &point(&sc));
        let value = Value::object(vec![("makespan_s", 1.25.into())]);
        assert!(cache.load(7, &input).is_none());
        cache.store(7, &input, &value).unwrap();
        assert_eq!(cache.load(7, &input).unwrap(), value);
        std::fs::write(cache.path_of(8), "{ not json").unwrap();
        assert!(cache.load(8, &input).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatching_key_input_reads_as_miss() {
        let (dir, cache) = temp_cache("collision");
        let sc = Scenario::default();
        let mut other = sc.clone();
        other.iterations += 1;
        let input = point_key_input(&sc, &point(&sc));
        let other_input = point_key_input(&other, &point(&other));
        let value = Value::object(vec![("makespan_s", 2.0.into())]);
        // Simulate an FNV collision: the entry under this key belongs
        // to a different point. The reader must reject it.
        cache.store(9, &other_input, &value).unwrap();
        assert!(cache.load(9, &input).is_none(), "collision served");
        assert_eq!(cache.load(9, &other_input).unwrap(), value);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_legacy_entries_read_as_miss() {
        let (dir, cache) = temp_cache("truncated");
        let sc = Scenario::default();
        let input = point_key_input(&sc, &point(&sc));
        let value = Value::object(vec![("makespan_s", 3.0.into())]);
        cache.store(4, &input, &value).unwrap();
        // Truncate the entry mid-file: parse fails, read is a miss.
        let full = std::fs::read_to_string(cache.path_of(4)).unwrap();
        std::fs::write(cache.path_of(4), &full[..full.len() / 2]).unwrap();
        assert!(cache.load(4, &input).is_none(), "torn entry served");
        // A legacy bare-record entry (no key_input wrapper) is a miss.
        std::fs::write(cache.path_of(5), value.to_string_pretty()).unwrap();
        assert!(cache.load(5, &input).is_none(), "legacy entry served");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_writers_to_same_key_never_tear() {
        let (dir, cache) = temp_cache("parallel");
        let sc = Scenario::default();
        let input = point_key_input(&sc, &point(&sc));
        let value = Value::object(vec![("makespan_s", 0.5.into())]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = cache.clone();
                let input = &input;
                let value = &value;
                s.spawn(move || {
                    for _ in 0..50 {
                        cache.store(11, input, value).unwrap();
                        // Readers racing the writers must always see a
                        // complete entry or (never here) a miss — a torn
                        // file would surface as a parse failure miss, but
                        // the rename is atomic so every read hits.
                        assert_eq!(cache.load(11, input).as_ref(), Some(value));
                    }
                });
            }
        });
        // No temporary files leak.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leaked tmp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

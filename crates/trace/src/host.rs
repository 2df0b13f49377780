//! Interned destination hosts.
//!
//! A proxy log holds millions of transactions but only about a hundred
//! distinct hosts, so a [`ProxyRecord`](crate::ProxyRecord) carries a
//! four-byte [`HostId`] instead of a heap string of its own. Every id comes
//! from one append-only table shared by the whole process: the batch
//! loader's parse workers, the stream source and the generator all intern
//! into it, so an id means the same host wherever a record travels.
//!
//! Ids never leave the process. Logs, checkpoints and `quarantine.log`
//! carry the name ([`HostId::name`]), and `HostId` has no `Ord`, so the
//! order in which threads first met a host cannot reach an output. The
//! table only grows, and its size is bounded by the number of distinct
//! hosts the process has seen.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// An interned destination host: an SNI for HTTPS, a URL host for HTTP.
///
/// Two ids are equal exactly when their names are equal. There is no
/// `Deref<Target = str>` and no `Display`, so every lookup of a name is a
/// visible [`HostId::name`] call.
///
/// # Examples
/// ```
/// use wearscope_trace::HostId;
/// let a = HostId::intern("api.weather.com");
/// assert_eq!(a, HostId::intern("api.weather.com"));
/// assert_ne!(a, HostId::intern("graph.facebook.com"));
/// assert_eq!(a.name(), "api.weather.com");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostId(u32);

/// Name → id and id → name, for the whole process or one thread's view
/// of it.
#[derive(Default)]
struct Names {
    ids: HashMap<&'static str, HostId>,
    names: Vec<&'static str>,
}

/// The one shared table. Names are leaked once each, which is what lets
/// [`HostId::name`] hand out `&'static str` without holding a lock.
fn shared() -> &'static Mutex<Names> {
    static SHARED: OnceLock<Mutex<Names>> = OnceLock::new();
    SHARED.get_or_init(Mutex::default)
}

thread_local! {
    /// This thread's copy of the part of the shared table it has used, so
    /// parse workers take the shared lock once per new host, not once per
    /// record.
    static CACHE: RefCell<Names> = RefCell::default();

    /// A small cache in front of [`CACHE`], keyed by a cheap inline hash
    /// of the name and checked against the name, so most records skip
    /// the map's SipHash. Each hash picks a set of two ways, so two
    /// busy hosts that share a set do not evict each other; a third
    /// falls back to the map, never onto the shared lock.
    static RECENT: RefCell<[RecentSet; RECENT_SETS]> =
        const { RefCell::new([[None; 2]; RECENT_SETS]) };
}

/// One set of [`RECENT`]: two hosts with the name the table keeps.
type RecentSet = [Option<(&'static str, HostId)>; 2];

/// Sets in [`RECENT`]: a few times the hundred or so hosts of a log.
const RECENT_SETS: usize = 256;

/// `name`'s set in [`RECENT`]: a multiplicative hash over the name's
/// eight-byte words (the last one overlapping the one before it, or
/// zero-padded in a name shorter than a word), folded to the set count.
fn recent_set(name: &[u8]) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    let mut hash = name.len() as u64;
    let last = match name.len() {
        0..8 => name.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)),
        n => {
            for w in name[..n - 1].chunks_exact(8) {
                hash = (hash.rotate_left(5) ^ word(w)).wrapping_mul(K);
            }
            word(&name[n - 8..])
        }
    };
    hash = (hash.rotate_left(5) ^ last).wrapping_mul(K);
    (hash >> 32) as usize % RECENT_SETS
}

impl HostId {
    /// The id of `name`, adding it to the process table on first sight.
    pub fn intern(name: &str) -> HostId {
        HostId::intern_bytes(name.as_bytes()).expect("a str is UTF-8")
    }

    /// [`HostId::intern`] for a name still in bytes: `None` if they are
    /// not UTF-8. A name this thread met recently is compared as bytes
    /// with the one the table keeps, so it is not checked again.
    pub(crate) fn intern_bytes(name: &[u8]) -> Option<HostId> {
        let set = recent_set(name);
        RECENT.with_borrow_mut(|recent| {
            let ways = &mut recent[set];
            for (known, id) in ways.iter().flatten() {
                if known.as_bytes() == name {
                    return Some(*id);
                }
            }
            let entry = HostId::intern_cached(std::str::from_utf8(name).ok()?);
            // Fill the set's first way, moving what it held to the second.
            ways[1] = ways[0].replace(entry);
            Some(entry.1)
        })
    }

    /// [`HostId::intern`] through this thread's map, with the name as the
    /// table keeps it.
    fn intern_cached(name: &str) -> (&'static str, HostId) {
        CACHE.with_borrow_mut(|cache| {
            if let Some((&known, &id)) = cache.ids.get_key_value(name) {
                return (known, id);
            }
            // Nothing that can unwind runs between the push and the insert
            // below, so a poisoned table is still consistent.
            let mut shared = shared().lock().unwrap_or_else(PoisonError::into_inner);
            let id = match shared.ids.get(name) {
                Some(&id) => id,
                None => {
                    let id = HostId(
                        u32::try_from(shared.names.len()).expect("more than 2^32 distinct hosts"),
                    );
                    let leaked: &'static str = Box::leak(name.into());
                    shared.names.push(leaked);
                    shared.ids.insert(leaked, id);
                    id
                }
            };
            let known = shared.names[id.index()];
            cache.ids.insert(known, id);
            (known, id)
        })
    }

    /// The host name this id was interned from.
    pub fn name(self) -> &'static str {
        CACHE.with_borrow_mut(|cache| {
            if let Some(&name) = cache.names.get(self.index()) {
                return name;
            }
            let shared = shared().lock().unwrap_or_else(PoisonError::into_inner);
            let known = cache.names.len();
            cache.names.extend_from_slice(&shared.names[known..]);
            cache.names[self.index()]
        })
    }

    /// The id's position in interning order: ids are dense from 0, so a
    /// per-host table can be a `Vec` indexed by it.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for HostId {
    /// Shows the name: an id is meaningless outside this process.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("HostId").field(&self.name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_intern_gives_one_id_per_name() {
        let names: Vec<String> = (0..64).map(|i| format!("h{i}.concurrent.test")).collect();
        let start = std::sync::Barrier::new(4);
        let per_thread: Vec<Vec<HostId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (names, start) = (&names, &start);
                    s.spawn(move || {
                        // All threads start together, each walking the
                        // names from a different offset, so first
                        // sightings race.
                        start.wait();
                        let mut ids = vec![None; names.len()];
                        for k in 0..names.len() {
                            let i = (k + 16 * t) % names.len();
                            ids[i] = Some(HostId::intern(&names[i]));
                        }
                        ids.into_iter().map(Option::unwrap).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ids in &per_thread {
            assert_eq!(ids, &per_thread[0]);
        }
        let distinct: std::collections::HashSet<HostId> = per_thread[0].iter().copied().collect();
        assert_eq!(distinct.len(), names.len());
        for (id, name) in per_thread[0].iter().zip(&names) {
            assert_eq!(id.name(), name);
        }
    }

    #[test]
    fn debug_shows_the_name() {
        assert_eq!(
            format!("{:?}", HostId::intern("dbg.example.com")),
            "HostId(\"dbg.example.com\")"
        );
    }
}

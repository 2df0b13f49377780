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
}

impl HostId {
    /// The id of `name`, adding it to the process table on first sight.
    pub fn intern(name: &str) -> HostId {
        CACHE.with_borrow_mut(|cache| {
            if let Some(&id) = cache.ids.get(name) {
                return id;
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
            cache.ids.insert(shared.names[id.index()], id);
            id
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

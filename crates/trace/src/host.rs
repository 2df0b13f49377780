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
//!
//! A host is looked up in layers, each missing into the next:
//!
//! * a `HostTable` keyed on the name's raw bytes, compared a word at a
//!   time: each log reader ([`Lines`](crate::Lines)) owns one, so a
//!   decoded host costs no hash of the whole name, no lock and no
//!   `RefCell`; [`HostId::intern`] uses one per thread;
//! * the thread's copy of the shared map (a UTF-8 check and a SipHash);
//! * the shared table, under its lock, which assigns a new name its id.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::codec::escape_into;

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

/// Name → id and id → host, for the whole process or one thread's view
/// of it.
#[derive(Default)]
struct Names {
    ids: HashMap<&'static str, HostId>,
    hosts: Vec<Host>,
}

/// A host as the table keeps it: its name, and the name as a log line's
/// field, escaped once when the host is interned (the name itself when
/// it holds nothing to escape).
#[derive(Clone, Copy)]
struct Host {
    name: &'static str,
    field: &'static [u8],
}

impl Host {
    /// Leaks `name`, and its escaped field only if it holds a byte to
    /// escape.
    fn leak(name: &str) -> Host {
        let name: &'static str = Box::leak(name.into());
        let field = if name
            .bytes()
            .any(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'))
        {
            let mut escaped = String::new();
            escape_into(name, &mut escaped);
            Box::leak(escaped.into_boxed_str()).as_bytes()
        } else {
            name.as_bytes()
        };
        Host { name, field }
    }
}

/// The one shared table. Names and escaped fields are leaked once each,
/// which is what lets [`HostId::name`] hand out `&'static str` without
/// holding a lock.
fn shared() -> &'static Mutex<Names> {
    static SHARED: OnceLock<Mutex<Names>> = OnceLock::new();
    SHARED.get_or_init(Mutex::default)
}

thread_local! {
    /// This thread's copy of the part of the shared table it has used, so
    /// parse workers take the shared lock once per new host, not once per
    /// record.
    static CACHE: RefCell<Names> = RefCell::default();

    /// The [`HostTable`] in front of [`CACHE`] for [`HostId::intern`],
    /// so most calls skip the map's SipHash. A log reader keeps a table
    /// of its own instead, and skips this one's `RefCell` too.
    static HOSTS: RefCell<HostTable> = const { RefCell::new(HostTable::new()) };
}

/// Hosts a reader has met, keyed on their raw bytes: an open-addressed
/// table of 256 slots (about 10 KB, allocated on first use) in front of
/// the thread's map.
///
/// A slot keeps a host's first and last eight bytes as words (the two
/// overlap in a name of 8 to 16 bytes; a shorter name is one zero-padded
/// word), so a name is found by a hash of those two words and its
/// length, and compared a word at a time: two words settle a name of up
/// to 16 bytes, and only the bytes between them are compared in a longer
/// one. A table three-quarters full is emptied before the next host goes
/// in, so a log with thousands of damaged host names costs a map lookup
/// per name, never an unbounded table.
#[derive(Debug)]
pub(crate) struct HostTable {
    slots: Vec<Option<Slot>>,
    /// Slots in use.
    held: usize,
}

/// One host of a [`HostTable`]: its key words, its name as the shared
/// table keeps it, and its id.
#[derive(Clone, Copy, Debug)]
struct Slot {
    first: u64,
    last: u64,
    name: &'static str,
    id: HostId,
}

/// Slots in a [`HostTable`]: a power of two, a few times the hundred or
/// so hosts of a log.
const SLOTS: usize = 256;

impl HostTable {
    /// An empty table; it allocates on its first host.
    pub(crate) const fn new() -> HostTable {
        HostTable {
            slots: Vec::new(),
            held: 0,
        }
    }

    /// The id of the host named by `name`'s bytes, interning it on first
    /// sight: `None` if they are not UTF-8. A name the table holds is
    /// compared with the one the shared table keeps, so it is not checked
    /// again.
    pub(crate) fn intern(&mut self, name: &[u8]) -> Option<HostId> {
        let (first, last) = key_words(name);
        let mut i = slot_of(first, last, name.len());
        if !self.slots.is_empty() {
            while let Some(slot) = &self.slots[i] {
                if slot.first == first
                    && slot.last == last
                    && slot.name.len() == name.len()
                    && (name.len() <= 16 || middle(slot.name.as_bytes()) == middle(name))
                {
                    return Some(slot.id);
                }
                i = (i + 1) % SLOTS;
            }
        }
        let (name, id) = HostId::intern_cached(std::str::from_utf8(name).ok()?);
        if self.held >= SLOTS / 4 * 3 || self.slots.is_empty() {
            self.slots.clear();
            self.slots.resize(SLOTS, None);
            self.held = 0;
            i = slot_of(first, last, name.len());
        }
        while self.slots[i].is_some() {
            i = (i + 1) % SLOTS;
        }
        self.slots[i] = Some(Slot {
            first,
            last,
            name,
            id,
        });
        self.held += 1;
        Some(id)
    }
}

/// `name`'s first and last eight bytes as little-endian words, or its
/// bytes zero-padded into one word (twice) when it is shorter.
fn key_words(name: &[u8]) -> (u64, u64) {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    match name.len() {
        0..8 => {
            let w = name.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            (w, w)
        }
        n => (word(&name[..8]), word(&name[n - 8..])),
    }
}

/// The bytes of a name longer than 16 that its key words leave out.
fn middle(name: &[u8]) -> &[u8] {
    &name[8..name.len() - 8]
}

/// The home slot of a name with these key words and length: a
/// multiplicative hash, its top bits.
fn slot_of(first: u64, last: u64, len: usize) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let hash = (first ^ last.rotate_left(29) ^ len as u64).wrapping_mul(K);
    (hash >> 56) as usize % SLOTS
}

impl HostId {
    /// The id of `name`, adding it to the process table on first sight.
    pub fn intern(name: &str) -> HostId {
        HostId::intern_bytes(name.as_bytes()).expect("a str is UTF-8")
    }

    /// [`HostId::intern`] for a name still in bytes: `None` if they are
    /// not UTF-8. A name this thread met recently is found in its
    /// [`HostTable`], so it is not checked again.
    pub(crate) fn intern_bytes(name: &[u8]) -> Option<HostId> {
        HOSTS.with_borrow_mut(|hosts| hosts.intern(name))
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
                        u32::try_from(shared.hosts.len()).expect("more than 2^32 distinct hosts"),
                    );
                    let host = Host::leak(name);
                    shared.hosts.push(host);
                    shared.ids.insert(host.name, id);
                    id
                }
            };
            let known = shared.hosts[id.index()].name;
            cache.ids.insert(known, id);
            (known, id)
        })
    }

    /// The host name this id was interned from.
    pub fn name(self) -> &'static str {
        self.host().name
    }

    /// The host as a log line's field: its name with `\\`, tab, `\n` and
    /// `\r` escaped ([`escape_into`]), decided once per host.
    pub(crate) fn encoded(self) -> &'static [u8] {
        self.host().field
    }

    /// The host this id was interned from, through this thread's copy of
    /// the shared table.
    #[inline]
    fn host(self) -> Host {
        CACHE.with_borrow_mut(|cache| {
            if let Some(&host) = cache.hosts.get(self.index()) {
                return host;
            }
            let shared = shared().lock().unwrap_or_else(PoisonError::into_inner);
            let known = cache.hosts.len();
            cache.hosts.extend_from_slice(&shared.hosts[known..]);
            cache.hosts[self.index()]
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

    /// Names that share their length and first and last eight bytes,
    /// names shorter than a word, a name that is not UTF-8, and more
    /// names than the table holds before it is emptied: each is found as
    /// the id of its name.
    #[test]
    fn a_host_table_finds_each_name_by_its_bytes() {
        let mut names: Vec<Vec<u8>> = ["", "a", "abcdefg", "abcdefgh", "abcdefghi"]
            .iter()
            .map(|n| n.as_bytes().to_vec())
            .collect();
        for mid in 0..300 {
            names.push(format!("table.{mid:03}.middle.test").into_bytes());
        }
        names.push("ünïcodé.table.test".as_bytes().to_vec());
        let mut table = HostTable::new();
        for _ in 0..2 {
            for name in &names {
                let id = table.intern(name).expect("UTF-8");
                assert_eq!(id.name().as_bytes(), name);
                assert_eq!(id, HostId::intern(id.name()));
                assert!(table.held <= SLOTS / 4 * 3);
            }
        }
        assert_eq!(table.intern(b"bad\xfftable.test"), None);
    }

    #[test]
    fn debug_shows_the_name() {
        assert_eq!(
            format!("{:?}", HostId::intern("dbg.example.com")),
            "HostId(\"dbg.example.com\")"
        );
    }
}

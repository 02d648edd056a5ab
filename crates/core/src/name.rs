//! Interned names: one copy of each distinct text per process.
//!
//! Every name a run gives an action, a role, a thread, an object or an
//! exception comes from a small vocabulary all participants share (§5.1):
//! `a0.1_e3`, `r2`, `T4`, `o1`, a scenario's literals. A [`Name`] is a
//! `Copy` handle on the one copy of its text, leaked into a process-wide
//! table when the text is first named. The table hands out one
//! `&'static &'static str` per text, and that thin pointer is the whole
//! name: copying a name copies one word (an `Option<Name>` too), and two
//! names are equal when their pointers are — no reference count, no text
//! compare. [`Ord`], [`Hash`], `Display` and `Debug` go by the text, as a
//! `str`'s do, so ordered maps, `Borrow<str>` lookups (an `ExceptionId` is
//! found by its `&str`) and rendered output cannot tell the difference.
//!
//! The table only grows, so names must come from bounded sets: never
//! format a seed, a counter or free text into one ([`Name::interned`] is
//! there to pin that).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::exception::RESERVED;

/// Every text named so far, with the one pointer its names hold: a tree,
/// so that it can be a `static` — over the few hundred names a process
/// makes a lookup is a few short compares.
type Table = BTreeMap<&'static str, &'static &'static str>;

static TABLE: Mutex<Table> = Mutex::new(BTreeMap::new());

/// The table, seeded on first use with the pre-defined exceptions' names —
/// the very slots of [`RESERVED`] that [`Name::reserved`] points at, so
/// that those names are made without the table and still equal their
/// interned texts.
fn table() -> MutexGuard<'static, Table> {
    // Nothing panics under the lock: a poisoned table is whole.
    let mut table = TABLE.lock().unwrap_or_else(PoisonError::into_inner);
    if table.is_empty() {
        table.extend(RESERVED.iter().map(|slot| (*slot, slot)));
    }
    table
}

/// An interned name (see the module docs).
///
/// # Examples
///
/// ```
/// use caa_core::name::Name;
///
/// let a = Name::new("r2");
/// let b = Name::from(format!("r{}", 2));
/// assert_eq!(a, b);
/// assert!(std::ptr::eq(a.as_str(), b.as_str()), "one copy of the text");
/// assert!(Name::new("a") < Name::new("b"), "ordered by text");
/// assert_eq!(format!("{a} {a:?}"), "r2 \"r2\"");
/// ```
#[derive(Clone, Copy)]
pub struct Name(&'static &'static str);

impl Name {
    /// The name of `text`, interning it if this is its first use.
    #[must_use]
    pub fn new(text: &str) -> Name {
        let mut table = table();
        if let Some(&interned) = table.get(text) {
            return Name(interned);
        }
        let text: &'static str = Box::leak(Box::<str>::from(text));
        let interned: &'static &'static str = Box::leak(Box::new(text));
        table.insert(text, interned);
        Name(interned)
    }

    /// One of the slots the table is seeded with ([`RESERVED`]): no
    /// lookup, no lock.
    pub(crate) fn reserved(slot: &'static &'static str) -> Name {
        debug_assert!(RESERVED.iter().any(|r| std::ptr::eq(r, slot)));
        Name(slot)
    }

    /// The text.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// How many distinct names this process has made so far (the
    /// pre-defined exceptions' included).
    #[must_use]
    pub fn interned() -> usize {
        table().len()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.0.cmp(other.0)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::new(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name::new(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exception::ExceptionId;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeSet, HashMap};

    #[test]
    fn equal_texts_are_one_pointer_and_different_texts_are_not() {
        let texts = ["a0.1_e3", "r2", "T4", "o1", "", "µ-like", "a0.1_e3 "];
        for x in texts {
            for y in texts {
                let (nx, ny) = (Name::new(x), Name::from(y.to_owned()));
                assert_eq!(nx == ny, x == y, "{x:?} vs {y:?}");
                assert_eq!(std::ptr::eq(nx.as_str(), ny.as_str()), x == y);
                assert_eq!(nx.as_str(), x);
            }
        }
        // The pre-defined names are made without the table and still are
        // the interned texts.
        assert_eq!(ExceptionId::new("__undo"), ExceptionId::undo());
        assert!(ExceptionId::new(String::from("__crash")).is_crash());
        assert_ne!(ExceptionId::new("__undo "), ExceptionId::undo());
    }

    #[test]
    fn order_and_hash_agree_with_str() {
        let texts: Vec<String> = (0..200)
            .map(|i| format!("a{}.{i}_e{}", i % 7, i % 3))
            .collect();
        // Shuffled (a stride coprime to the length), so that interning
        // order — and with it the pointers' order — is not the texts'.
        let ids: Vec<ExceptionId> = (0..texts.len())
            .map(|i| ExceptionId::new(texts[(i * 37) % texts.len()].as_str()))
            .collect();
        let ordered: Vec<&str> = ids
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(ExceptionId::name)
            .collect();
        let mut expected: Vec<&str> = texts.iter().map(String::as_str).collect();
        expected.sort_unstable();
        assert_eq!(ordered, expected);
        let by_id: HashMap<ExceptionId, usize> =
            ids.iter().enumerate().map(|(at, &id)| (id, at)).collect();
        for text in &texts {
            let at = by_id.get(text.as_str()).expect("a str finds its id");
            assert_eq!(ids[*at].name(), text);
        }
        let hash_of = |key: &dyn Fn(&mut DefaultHasher)| {
            let mut hasher = DefaultHasher::new();
            key(&mut hasher);
            hasher.finish()
        };
        assert_eq!(
            hash_of(&|h| Name::new("r7").hash(h)),
            hash_of(&|h| "r7".hash(h))
        );
    }

    #[test]
    fn display_and_debug_are_the_texts() {
        assert_eq!(format!("{:?}", ExceptionId::new("x")), "ExceptionId(\"x\")");
        assert_eq!(format!("{:?}", Name::new("quote\"")), "\"quote\\\"\"");
        assert_eq!(
            format!("{}|{:>4}|", Name::new("ab"), Name::new("ab")),
            "ab|  ab|"
        );
        assert_eq!(ExceptionId::undo().to_string(), "µ");
        assert_eq!(
            format!("{:?}", ExceptionId::undo()),
            "ExceptionId(\"__undo\")"
        );
    }

    #[test]
    fn two_threads_interning_the_same_texts_get_the_same_pointers() {
        let texts: Vec<String> = (0..1000).map(|i| format!("interned-by-two-{i}")).collect();
        let intern = |texts: &[String]| -> Vec<usize> {
            texts
                .iter()
                .map(|text| Name::new(text).as_str().as_ptr() as usize)
                .collect()
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| intern(&texts));
            let b = scope.spawn(|| {
                let mut reversed = texts.clone();
                reversed.reverse();
                let mut pointers = intern(&reversed);
                pointers.reverse();
                pointers
            });
            (a.join().expect("first"), b.join().expect("second"))
        });
        assert_eq!(a, b);
        assert_eq!(a, intern(&texts), "and the same as this thread's");
        assert!(Name::interned() >= 1000 + RESERVED.len());
    }
}

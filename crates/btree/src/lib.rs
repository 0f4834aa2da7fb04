//! Immutable B+-trees for LSM disk components, plus the in-leaf search
//! machinery behind the paper's point-lookup optimizations.
//!
//! LSM components are written once (flush or merge) and never updated, so
//! the tree here is a bulk-loaded, tightly packed structure:
//!
//! * [`builder::BTreeBuilder`] — streaming bottom-up bulk loader; leaves are
//!   written contiguously so scans are sequential;
//! * [`tree::BTree`] — point search (returning each entry's global ordinal,
//!   which validity bitmaps index by), range scans, key-range metadata;
//!   the handle holds the tree's router pages, so a descent reads only
//!   its leaf;
//! * [`tree::BTreeScan`] — the range scan: a leaf at a time, lending each
//!   entry as slices of the page it holds (owning wrappers for callers
//!   that keep entries);
//! * [`cursor::StatefulCursor`] — the "stateful B+-tree lookup" of
//!   Section 3.2: remembers the last leaf/position and uses exponential
//!   search for sorted probe streams;
//! * [`page`] — the one page format: every leaf ([`page::LeafPage`]) and
//!   router page keeps its keys in a dense strip apart from the values, so
//!   searches, index-only scans and probe filtering touch only the keys,
//!   and every key and value is a slice of the page.
//!
//! All page reads go through [`lsm_storage::Storage`], so every search and
//! scan is charged to the simulated device and CPU cost models. The router
//! pages are read once — kept by the builder as the device stored them, or
//! read by [`tree::BTree::open`] — and a walk over them is charged its node
//! visits and key comparisons, as a walk that read them was.

#![warn(missing_docs)]

pub mod builder;
pub mod cursor;
mod encoding;
pub mod page;
pub mod tree;
mod walk;

pub use builder::BTreeBuilder;
pub use cursor::StatefulCursor;
pub use tree::{BTree, BTreeScan};

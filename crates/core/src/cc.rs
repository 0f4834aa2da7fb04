//! Concurrency control for flush/merge under the Mutable-bitmap strategy
//! (Section 5.3).
//!
//! While a merge rebuilds components, concurrent writers may need to mark
//! entries of those very components deleted. The two methods differ in how
//! such deletes reach the new component:
//!
//! * **Lock method** (Figure 10): the builder S-locks every scanned key and
//!   publishes it to the build link; a writer whose key was already scanned
//!   registers the delete directly against the new component's position.
//! * **Side-file method** (Figure 11): the builder freezes bitmap snapshots
//!   (after draining writers with a dataset lock), scans without locks, and
//!   writers append deleted keys to a side-file that the builder sorts and
//!   applies in a catch-up phase.
//!
//! The baseline is the same merge with no coordination at all — unsafe
//! under concurrency, measured only to isolate the methods' overhead
//! (Figure 23).

use crate::dataset::Dataset;
use lsm_common::{Error, Result};
use lsm_tree::{
    AtomicBitmap, BitmapSnapshot, BuildLink, ComponentBuilder, ComponentId, DiskComponent, LsmScan,
    MergeRange, ScanOptions,
};
use std::ops::Bound;
use std::sync::Arc;

/// Concurrency-control method for a merge with concurrent writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMethod {
    /// No coordination (baseline; unsafe under writes).
    Baseline,
    /// Per-key locking (Figure 10).
    Lock,
    /// Side-file buffering (Figure 11).
    SideFile,
}

/// Merges the primary (and primary key) index components of `range` while
/// concurrent writers keep ingesting, using `method` for coordination.
/// Returns the new primary component.
pub fn merge_primary_with_cc(
    ds: &Dataset,
    range: MergeRange,
    method: CcMethod,
) -> Result<Arc<DiskComponent>> {
    let primary = ds.primary();
    let pk_tree = ds
        .pk_index()
        .ok_or_else(|| Error::invalid("cc merge requires the primary key index"))?;
    let p_inputs = primary.components_in_range(range);
    let k_inputs = pk_tree.components_in_range(range);
    if p_inputs.len() < 2 {
        return Err(Error::invalid("cc merge needs at least two components"));
    }
    if p_inputs.len() != k_inputs.len() {
        return Err(Error::corruption(format!(
            "cc merge: primary range holds {} components, pk index {}",
            p_inputs.len(),
            k_inputs.len()
        )));
    }
    let drop_anti = primary.range_includes_oldest(range);
    let id = ComponentId::merged(p_inputs.iter().map(|c| c.id()))
        .ok_or_else(|| Error::invalid("cc merge inputs carry no component IDs"))?;
    let expected: u64 = p_inputs.iter().map(|c| c.num_entries()).sum();

    let mut p_builder = builder_for(ds, &p_inputs, id, expected, true)?;
    let mut k_builder = builder_for(ds, &k_inputs, id, expected, false)?;

    let link = match method {
        CcMethod::Baseline => None,
        CcMethod::Lock => Some(Arc::new(BuildLink::new_lock_method())),
        CcMethod::SideFile => Some(Arc::new(BuildLink::new())),
    };

    // --- initialization phase -------------------------------------------
    // Writers discover the build through the pk-index components (that is
    // where locate_valid lands); Figure 10a line 2 / Figure 11a line 4.
    let snapshots: Option<Vec<Option<BitmapSnapshot>>> = match method {
        CcMethod::SideFile => {
            // Drain ongoing operations, freeze bitmaps, link components.
            let guard = ds.dataset_lock().write();
            let snaps = p_inputs
                .iter()
                .map(|c| c.bitmap().map(|b| b.snapshot()))
                .collect();
            for c in k_inputs.iter().chain(p_inputs.iter()) {
                c.set_successor(link.clone());
            }
            drop(guard);
            Some(snaps)
        }
        CcMethod::Lock => {
            for c in k_inputs.iter().chain(p_inputs.iter()) {
                c.set_successor(link.clone());
            }
            None
        }
        CcMethod::Baseline => None,
    };

    // --- build phase ------------------------------------------------------
    match method {
        CcMethod::SideFile => {
            // Scan with frozen snapshots; no per-key locks (Figure 11a).
            let pairs: Vec<(Arc<DiskComponent>, Option<BitmapSnapshot>)> =
                // INVARIANT: the init phase above produced `Some(snaps)` for
                // the SideFile arm; the two matches use the same `method`.
                p_inputs.iter().cloned().zip(snapshots.unwrap()).collect();
            let mut scan = LsmScan::with_bitmap_snapshots(
                ds.storage().clone(),
                &pairs,
                ScanOptions {
                    emit_anti_matter: true,
                    respect_bitmaps: true,
                },
            )?;
            while let Some(lent) = scan.next_lent()? {
                if lent.entry.anti_matter && drop_anti {
                    continue;
                }
                p_builder.add_ref(lent.key, lent.entry)?;
                k_builder.add_ref(lent.key, lent.entry.key_only())?;
            }
        }
        CcMethod::Lock | CcMethod::Baseline => {
            // Scan live bitmaps; under Lock, S-lock and re-check each key
            // (Figure 10a lines 4-10).
            let mut scan = LsmScan::new(
                ds.storage().clone(),
                None,
                &p_inputs,
                Bound::Unbounded,
                Bound::Unbounded,
                ScanOptions {
                    emit_anti_matter: true,
                    respect_bitmaps: false,
                },
            )?;
            while let Some(lent) = scan.next_lent()? {
                let (key, entry) = (lent.key, lent.entry);
                if entry.anti_matter {
                    if !drop_anti {
                        p_builder.add_ref(key, entry)?;
                        k_builder.add_ref(key, entry.key_only())?;
                        if let Some(link) = &link {
                            link.publish_scanned(key.to_vec());
                        }
                    }
                    continue;
                }
                match (&link, method) {
                    (Some(link), CcMethod::Lock) => {
                        ds.locks().lock_shared(key);
                        // Re-check validity under the lock: a writer may have
                        // deleted the key since the scan read it.
                        let still_valid = p_inputs[lent.rank].is_valid(lent.ordinal);
                        if still_valid {
                            p_builder.add_ref(key, entry)?;
                            k_builder.add_ref(key, entry.key_only())?;
                            link.publish_scanned(key.to_vec());
                        }
                        ds.locks().unlock_shared(key);
                    }
                    _ => {
                        if p_inputs[lent.rank].is_valid(lent.ordinal) {
                            p_builder.add_ref(key, entry)?;
                            k_builder.add_ref(key, entry.key_only())?;
                        }
                    }
                }
            }
        }
    }

    // --- catch-up / install phase ------------------------------------------
    let n = p_builder.num_entries();
    let new_p = Arc::new(p_builder.finish()?);
    let new_k = Arc::new(k_builder.finish()?);
    let bitmap = Arc::new(AtomicBitmap::new(n));
    new_p.set_bitmap(bitmap.clone())?;
    new_k.set_bitmap(bitmap.clone())?;

    {
        // Drain writers, absorb buffered deletes, publish the new component,
        // and swap it in.
        let guard = ds.dataset_lock().write();
        if let Some(link) = &link {
            match method {
                CcMethod::SideFile => {
                    let keys = link.close_side_file();
                    ds.storage()
                        .charge_cpu(keys.len() as u64 * ds.storage().cpu().sort_entry_ns);
                    for key in keys {
                        if let Some((_, ord)) = new_k.search(&key)? {
                            bitmap.set(ord);
                        }
                    }
                }
                CcMethod::Lock => {
                    for pos in link.take_direct_deletes() {
                        bitmap.set(pos);
                    }
                }
                CcMethod::Baseline => {}
            }
            link.set_new_component(new_k.clone());
        }
        primary.replace_range(range, new_p.clone(), true)?;
        // Crash window: the primary's merged component is installed, the
        // pk index still holds the pre-merge components (the plain
        // correlated merge has the same window; recovery realigns it).
        ds.crash_site("merge_install")?;
        pk_tree.replace_range(range, new_k, true)?;
        drop(guard);
    }
    ds.stats().bump(&ds.stats().merges);
    Ok(new_p)
}

fn builder_for(
    ds: &Dataset,
    inputs: &[Arc<DiskComponent>],
    id: ComponentId,
    expected: u64,
    is_primary: bool,
) -> Result<ComponentBuilder> {
    let mut filter = None;
    if is_primary {
        for c in inputs {
            if let Some(f) = c.range_filter() {
                match &mut filter {
                    None => filter = Some(f.clone()),
                    Some(acc) => acc.union(f),
                }
            }
        }
    }
    ComponentBuilder::new(
        ds.storage().clone(),
        id,
        lsm_tree::BuildOptions {
            with_bloom: true,
            bloom_kind: ds.config().bloom_kind,
            bloom_fpr: ds.config().bloom_fpr,
            expected_keys: expected as usize,
            filter,
            make_mutable_bitmap: false,
        },
    )
}

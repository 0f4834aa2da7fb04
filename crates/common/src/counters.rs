//! [`counters!`](crate::counters): declare a set of event counters once.

/// Declares a struct of live event counters and its `Copy` snapshot from one
/// list, so each counter is written once.
///
/// From the list it generates:
/// * the live struct (`Debug`, `Default`): one `pub` `AtomicU64` per
///   counter and gauge, with the list's docs;
/// * the snapshot struct (`Debug`, `Clone`, `Copy`, `Default`, `PartialEq`,
///   `Eq`): one `pub` `u64` per counter, gauge and derived field, with the
///   same docs;
/// * a private `load(&self)` on the live struct that copies every counter
///   and gauge into a snapshot, its derived fields zero (the caller's
///   snapshot method computes them);
/// * `since(&self, earlier)` on the snapshot: counters and derived fields
///   are differences, gauges keep the later reading.
///
/// The `gauges` and `derived` sections are optional, in that order.
///
/// ```
/// use std::sync::atomic::Ordering;
///
/// lsm_common::counters! {
///     /// Live counters.
///     pub struct Stats;
///     /// A copy of [`Stats`].
///     pub struct StatsSnapshot;
///     counters {
///         /// Requests served.
///         served,
///     }
///     gauges {
///         /// Requests waiting.
///         waiting,
///     }
///     derived {
///         /// Served plus waiting.
///         seen,
///     }
/// }
///
/// let live = Stats::default();
/// live.served.fetch_add(2, Ordering::Relaxed);
/// live.waiting.store(5, Ordering::Relaxed);
/// let before = live.load();
/// live.served.fetch_add(3, Ordering::Relaxed);
/// live.waiting.store(1, Ordering::Relaxed);
/// let mut after = live.load();
/// after.seen = after.served + after.waiting;
/// let d = after.since(&before);
/// assert_eq!((d.served, d.waiting, d.seen), (3, 1, 6));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$live_meta:meta])*
        $vis:vis struct $live:ident;
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident;
        counters { $($(#[$c_meta:meta])* $c:ident,)* }
        $(gauges { $($(#[$g_meta:meta])* $g:ident,)* })?
        $(derived { $($(#[$d_meta:meta])* $d:ident,)* })?
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        $vis struct $live {
            $($(#[$c_meta])* pub $c: ::std::sync::atomic::AtomicU64,)*
            $($($(#[$g_meta])* pub $g: ::std::sync::atomic::AtomicU64,)*)?
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $($(#[$c_meta])* pub $c: u64,)*
            $($($(#[$g_meta])* pub $g: u64,)*)?
            $($($(#[$d_meta])* pub $d: u64,)*)?
        }

        impl $live {
            /// Copies every counter and gauge; derived fields are zero.
            fn load(&self) -> $snap {
                use ::std::sync::atomic::Ordering::Relaxed;
                $snap {
                    $($c: self.$c.load(Relaxed),)*
                    $($($g: self.$g.load(Relaxed),)*)?
                    $($($d: 0,)*)?
                }
            }
        }

        impl $snap {
            /// Field-wise difference `self - earlier` (for measuring one
            /// phase); a gauge keeps its later reading.
            pub fn since(&self, earlier: &Self) -> Self {
                Self {
                    $($c: self.$c - earlier.$c,)*
                    $($($g: self.$g,)*)?
                    $($($d: self.$d - earlier.$d,)*)?
                }
            }
        }
    };
}

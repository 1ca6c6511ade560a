//! One declaration per counter set.
//!
//! [`counters!`](crate::counters) takes the counters of a statistics
//! struct — name, doc and order, written once — and generates the
//! snapshot struct, the name/value walk the exporters iterate, the sum
//! that merges two snapshots and, when asked for `cells`, the atomic
//! storage behind the snapshot with its load and reset. Adding a counter
//! is one line in the declaration plus its increment site.
//!
//! Fields after the `;` are ordinary fields of the snapshot struct
//! (gauges, per-node vectors, nested snapshots): they are not walked,
//! summed or given a cell, and the struct must be `Default` so a cell
//! load can leave them unset.

/// Declares a statistics struct whose leading fields are `u64` counters.
///
/// ```
/// simkit::counters! {
///     /// What the door saw.
///     #[derive(Clone, Debug, Default)]
///     pub struct DoorStats, pub cells DoorCells {
///         /// Times the door opened.
///         opened,
///         slammed;
///         /// Current state, not a tally.
///         pub ajar: bool,
///     }
/// }
/// let cells = DoorCells::default();
/// cells.opened.fetch_add(2, simkit::sync::Ordering::Relaxed);
/// let mut stats = DoorStats { ajar: true, ..cells.load() };
/// assert_eq!(stats.counters().collect::<Vec<_>>(), [("opened", 2), ("slammed", 0)]);
/// stats.add_counters(&cells.load());
/// assert_eq!(stats.opened, 4);
/// cells.reset();
/// assert_eq!(cells.load().opened, 0);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident {
            $( $(#[$cmeta:meta])* $counter:ident ),* $(,)?
            $( ; $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)? )?
        }
    ) => {
        $(#[$meta])*
        $vis struct $Stats {
            $( $(#[$cmeta])* pub $counter: u64, )*
            $( $( $(#[$fmeta])* $fvis $field: $fty, )* )?
        }

        impl $Stats {
            /// `(name, value)` of every declared counter, in declaration
            /// order — the order the exporters emit.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [ $( (stringify!($counter), self.$counter) ),* ].into_iter()
            }

            /// The same walk with the values writable.
            pub fn counters_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> {
                [ $( (stringify!($counter), &mut self.$counter) ),* ].into_iter()
            }

            /// Adds every declared counter of `other` to this snapshot.
            pub fn add_counters(&mut self, other: &Self) {
                $( self.$counter += other.$counter; )*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident, $cvis:vis cells $Cells:ident {
            $( $(#[$cmeta:meta])* $counter:ident ),* $(,)?
            $( ; $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)? )?
        }
    ) => {
        $crate::counters! {
            $(#[$meta])*
            $vis struct $Stats {
                $( $(#[$cmeta])* $counter ),*
                $( ; $( $(#[$fmeta])* $fvis $field : $fty ),* )?
            }
        }

        /// The atomic cells behind the counters of the snapshot struct.
        #[derive(Default)]
        $cvis struct $Cells {
            $( $(#[$cmeta])* $cvis $counter: $crate::sync::AtomicU64, )*
        }

        #[allow(dead_code)] // not every counter set walks or resets its cells
        impl $Cells {
            /// Snapshot of every cell; fields that are not counters are
            /// left at their defaults.
            #[allow(clippy::needless_update)]
            $cvis fn load(&self) -> $Stats {
                // ordering: Relaxed — statistics snapshot; the counters are
                // independent tallies, not a consistency point.
                $Stats {
                    $( $counter: self.$counter.load($crate::sync::Ordering::Relaxed), )*
                    ..Default::default()
                }
            }

            /// `(name, cell)` of every counter, in declaration order.
            $cvis fn cells(
                &self,
            ) -> impl Iterator<Item = (&'static str, &$crate::sync::AtomicU64)> {
                [ $( (stringify!($counter), &self.$counter) ),* ].into_iter()
            }

            /// Zeroes every cell.
            $cvis fn reset(&self) {
                // ordering: Relaxed — callers reset between runs, with no
                // concurrent operation in flight to observe a torn reset.
                for (_, cell) in self.cells() {
                    cell.store(0, $crate::sync::Ordering::Relaxed);
                }
            }
        }
    };
}

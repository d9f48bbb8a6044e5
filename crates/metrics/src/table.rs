//! The metric table: one declaration per scalar metric.
//!
//! A family of scalar metrics — the live `AtomicU64`s a service bumps,
//! the plain-`u64` snapshot it hands out, and what both expositions
//! print for each — is declared once, as rows of `metric_family!`:
//!
//! ```text
//! field: counter|gauge "prometheus_name" "Help text." [=> bump_method];
//! ```
//!
//! `field` names the atomic, the snapshot's `pub` field and the JSON
//! key; the help text doubles as the field's (and the bump method's)
//! documentation; `=> bump_method` generates the public
//! add-one-relaxed method for counters that are only ever bumped by
//! one. Anything compound — two atomics moved together, a high-water
//! `fetch_max`, a gauge that moves both ways — is written by hand in a
//! second `impl` block beside the invocation, against the same private
//! fields. [`crate::expo`] renders every family by looping over
//! [`rows`](crate::CountersSnapshot::rows), so a new metric is one row
//! here and one line in each exposition golden.

/// Whether a metric only ever goes up or moves both ways — the
/// Prometheus `# TYPE`, and the `_total` suffix rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic; Prometheus name ends in `_total`.
    Counter,
    /// Moves both ways (depths, occupancy, high-water marks).
    Gauge,
}

impl Kind {
    /// The Prometheus `# TYPE` keyword.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One row of a metric family: everything the expositions print about
/// a scalar metric besides its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Snapshot field name, which is also the JSON key.
    pub field: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// Prometheus series name.
    pub name: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
}

/// Declare one metric family: the live atomics struct (`new`,
/// `snapshot`, the row-named bump methods), its `pub`-field snapshot
/// struct, and the snapshot's `DEFS`/`rows()` view. See the module
/// docs for the row grammar.
macro_rules! metric_family {
    (
        $(#[$live_meta:meta])*
        live $Live:ident;
        $(#[$snap_meta:meta])*
        snapshot $Snap:ident;
        $( $field:ident: $kind:ident $name:literal $help:literal $(=> $bump:ident)?; )+
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        pub struct $Live {
            $( $field: ::std::sync::atomic::AtomicU64, )+
        }

        impl $Live {
            /// Fresh zeroed metrics.
            pub fn new() -> Self {
                Self::default()
            }

            $($(
                #[doc = concat!("Bump `", stringify!($field), "`: ", $help)]
                pub fn $bump(&self) {
                    self.$field.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                }
            )?)+

            /// Consistent-enough snapshot (each metric is read
            /// atomically; the set is not one atomic transaction).
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Snap {
            $( #[doc = $help] pub $field: u64, )+
        }

        impl $Snap {
            /// The family's rows, in declaration order.
            pub const DEFS: &'static [$crate::table::MetricDef] = &[
                $( $crate::table::MetricDef {
                    field: stringify!($field),
                    kind: $crate::table::metric_family!(@kind $kind),
                    name: $name,
                    help: $help,
                }, )+
            ];

            /// Every row paired with its value, in declaration order —
            /// what the expositions loop over.
            pub fn rows(&self) -> impl Iterator<Item = (&'static $crate::table::MetricDef, u64)> {
                Self::DEFS.iter().zip([ $( self.$field, )+ ])
            }
        }
    };
    (@kind counter) => { $crate::table::Kind::Counter };
    (@kind gauge) => { $crate::table::Kind::Gauge };
}

pub(crate) use metric_family;

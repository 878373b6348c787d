//! The longitudinal store: a sequence of daily (or weekly) snapshots with
//! per-registrar time-series extraction and CSV export — the substrate for
//! Figures 4–8.

use std::fmt::{Display, Write};

use dsec_ecosystem::{SimDate, Tld};

use crate::snapshot::{OperatorStats, Snapshot};

/// A point on a time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Date of the snapshot.
    pub date: SimDate,
    /// Aggregate at that date.
    pub stats: OperatorStats,
}

impl SeriesPoint {
    /// Domains whose served state was actually observed this snapshot:
    /// the denominator of the deployment fractions. Unreachable and
    /// indeterminate domains carry no evidence either way, so counting
    /// them would deflate every Figure 4–8 curve whenever the fault plane
    /// degrades a scan.
    pub fn observed(&self) -> u64 {
        self.stats.domains - self.stats.unobserved()
    }

    /// Fraction of observed domains with a DNSKEY.
    pub fn dnskey_fraction(&self) -> f64 {
        ratio(self.stats.with_dnskey, self.observed())
    }

    /// Fraction of observed domains fully deployed (DNSKEY **and**
    /// matching DS) — the y-axis of Figures 4–7.
    pub fn full_fraction(&self) -> f64 {
        ratio(self.stats.fully_deployed, self.observed())
    }

    /// Of the domains with DNSKEY, the fraction that also have a DS — the
    /// top panel of Figure 8.
    pub fn ds_given_dnskey(&self) -> f64 {
        ratio(self.stats.with_ds, self.stats.with_dnskey)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// An append-only sequence of snapshots.
#[derive(Debug, Default)]
pub struct LongitudinalStore {
    snapshots: Vec<Snapshot>,
}

impl LongitudinalStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a snapshot (dates must be non-decreasing).
    pub fn record(&mut self, snapshot: Snapshot) {
        if let Some(last) = self.snapshots.last() {
            assert!(
                last.date <= snapshot.date,
                "snapshots must be appended in date order"
            );
        }
        self.snapshots.push(snapshot);
    }

    /// All snapshots, oldest first.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The most recent snapshot.
    pub fn latest(&self) -> Option<&Snapshot> {
        self.snapshots.last()
    }

    /// The time series of one operator over the given TLDs.
    pub fn series(&self, operator: &str, tlds: &[Tld]) -> Vec<SeriesPoint> {
        self.snapshots
            .iter()
            .map(|s| SeriesPoint {
                date: s.date,
                stats: s.operator_totals(operator, tlds),
            })
            .collect()
    }

    /// The per-TLD aggregate series (Table 1 over time).
    pub fn tld_series(&self, tld: Tld) -> Vec<SeriesPoint> {
        self.snapshots
            .iter()
            .map(|s| SeriesPoint {
                date: s.date,
                stats: s.tld_totals(tld),
            })
            .collect()
    }

    /// One row per (snapshot, TLD the operator was ever seen in): the
    /// operator's cell for that day, or an explicit all-zero cell on days
    /// the operator has no domains there. The zero rows keep the series
    /// rectangular — a day with no cell is real data (count zero), not a
    /// gap downstream plotting should interpolate over.
    fn rows(&self, operator: &str) -> Vec<(SimDate, Tld, OperatorStats)> {
        let mut tlds: Vec<Tld> = Vec::new();
        for snapshot in &self.snapshots {
            for (op, tld) in snapshot.cells.keys() {
                if op == operator && !tlds.contains(tld) {
                    tlds.push(*tld);
                }
            }
        }
        tlds.sort();
        let mut rows = Vec::with_capacity(self.snapshots.len() * tlds.len());
        for snapshot in &self.snapshots {
            for &tld in &tlds {
                let stats = snapshot
                    .cells
                    .get(&(operator.to_string(), tld))
                    .copied()
                    .unwrap_or_default();
                rows.push((snapshot.date, tld, stats));
            }
        }
        rows
    }

    /// CSV of one operator's series, one row per (snapshot, TLD the
    /// operator was ever seen in — all-zero rows fill days without cells):
    /// `date,operator,tld,domains,with_dnskey,with_ds,full,partial,misconfigured`.
    pub fn to_csv(&self, operator: &str) -> String {
        self.csv(operator, false)
    }

    /// Degradation-aware CSV: [`LongitudinalStore::to_csv`]'s columns
    /// plus `unreachable,indeterminate` — the per-cell counts of domains
    /// that could not be observed that day. Kept as a separate export so
    /// downstream consumers of the original column layout are unaffected.
    pub fn to_csv_extended(&self, operator: &str) -> String {
        self.csv(operator, true)
    }

    fn csv(&self, operator: &str, extended: bool) -> String {
        let mut out = csv_header(extended);
        for (date, tld, stats) in self.rows(operator) {
            csv_row(&mut out, operator, date, tld, &stats, extended);
        }
        out
    }
}

/// Column names of [`OperatorStats::counters`], in its order.
const COUNTER_COLUMNS: [&str; 8] = [
    "domains",
    "with_dnskey",
    "with_ds",
    "fully_deployed",
    "partially_deployed",
    "misconfigured",
    "unreachable",
    "indeterminate",
];

/// How many of the counters an export carries: the extended one all of
/// them, the legacy one all but the two degradation columns.
fn exported(extended: bool) -> usize {
    if extended {
        COUNTER_COLUMNS.len()
    } else {
        COUNTER_COLUMNS.len() - 2
    }
}

/// The one CSV line writer: the header (column names) and every row
/// (counts) of every export, in memory or replayed from a spill file.
fn csv_line<C: Display>(
    out: &mut String,
    date: impl Display,
    operator: &str,
    tld: &str,
    counters: &[C],
) {
    write!(out, "{date},{operator},{tld}").expect("writing to a String cannot fail");
    for counter in counters {
        write!(out, ",{counter}").expect("writing to a String cannot fail");
    }
    out.push('\n');
}

/// A CSV export holding only its header line.
pub(crate) fn csv_header(extended: bool) -> String {
    let mut out = String::new();
    let columns = &COUNTER_COLUMNS[..exported(extended)];
    csv_line(&mut out, "date", "operator", "tld", columns);
    out
}

/// Appends `operator`'s row for one (snapshot, TLD) cell.
pub(crate) fn csv_row(
    out: &mut String,
    operator: &str,
    date: SimDate,
    tld: Tld,
    stats: &OperatorStats,
    extended: bool,
) {
    let counters = &stats.counters()[..exported(extended)];
    csv_line(out, date, operator, tld.label(), counters);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn snapshot(day: u32, dnskey: u64, ds: u64) -> Snapshot {
        let mut cells = BTreeMap::new();
        cells.insert(
            ("op.net".to_string(), Tld::Com),
            OperatorStats {
                domains: 100,
                with_dnskey: dnskey,
                with_ds: ds,
                fully_deployed: ds,
                partially_deployed: dnskey - ds,
                ..OperatorStats::default()
            },
        );
        Snapshot {
            date: SimDate(day),
            cells,
        }
    }

    #[test]
    fn series_extraction() {
        let mut store = LongitudinalStore::new();
        store.record(snapshot(0, 10, 5));
        store.record(snapshot(7, 20, 10));
        let series = store.series("op.net", &[Tld::Com]);
        assert_eq!(series.len(), 2);
        assert!((series[0].dnskey_fraction() - 0.10).abs() < 1e-9);
        assert!((series[1].dnskey_fraction() - 0.20).abs() < 1e-9);
        assert!((series[1].ds_given_dnskey() - 0.50).abs() < 1e-9);
        assert!((series[1].full_fraction() - 0.10).abs() < 1e-9);
    }

    #[test]
    fn missing_operator_yields_zero_points() {
        let mut store = LongitudinalStore::new();
        store.record(snapshot(0, 10, 5));
        let series = store.series("ghost.net", &[Tld::Com]);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].stats.domains, 0);
        assert_eq!(series[0].dnskey_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "date order")]
    fn out_of_order_snapshots_rejected() {
        let mut store = LongitudinalStore::new();
        store.record(snapshot(7, 1, 1));
        store.record(snapshot(0, 1, 1));
    }

    #[test]
    fn csv_export_shape() {
        let mut store = LongitudinalStore::new();
        store.record(snapshot(0, 10, 5));
        let csv = store.to_csv("op.net");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("date,operator,tld"));
        assert_eq!(lines[1], "2015-01-01,op.net,com,100,10,5,5,5,0");
    }

    #[test]
    fn extended_csv_appends_degradation_columns() {
        let mut store = LongitudinalStore::new();
        let mut snap = snapshot(0, 10, 5);
        let stats = snap
            .cells
            .get_mut(&("op.net".to_string(), Tld::Com))
            .unwrap();
        stats.unreachable = 3;
        stats.indeterminate = 1;
        store.record(snap);
        let csv = store.to_csv_extended("op.net");
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with("misconfigured,unreachable,indeterminate"));
        assert_eq!(lines[1], "2015-01-01,op.net,com,100,10,5,5,5,0,3,1");
        // The legacy export is unchanged by the new fields.
        assert_eq!(
            store.to_csv("op.net").lines().nth(1).unwrap(),
            "2015-01-01,op.net,com,100,10,5,5,5,0"
        );
    }

    #[test]
    fn fractions_divide_by_observed_domains_only() {
        // 100 domains, 20 unobserved (12 unreachable + 8 indeterminate),
        // 40 of the 80 observed have a DNSKEY and 20 are fully deployed.
        let mut store = LongitudinalStore::new();
        let mut snap = snapshot(0, 40, 20);
        let stats = snap
            .cells
            .get_mut(&("op.net".to_string(), Tld::Com))
            .unwrap();
        stats.unreachable = 12;
        stats.indeterminate = 8;
        store.record(snap);
        let point = store.series("op.net", &[Tld::Com])[0];
        assert_eq!(point.observed(), 80);
        // 40/80, not 40/100: unobserved domains carry no evidence.
        assert!((point.dnskey_fraction() - 0.5).abs() < 1e-9);
        assert!((point.full_fraction() - 0.25).abs() < 1e-9);
        // DS|DNSKEY is within the observed subpopulation already.
        assert!((point.ds_given_dnskey() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fully_unobserved_point_has_zero_fractions() {
        let mut store = LongitudinalStore::new();
        let mut snap = snapshot(0, 0, 0);
        let stats = snap
            .cells
            .get_mut(&("op.net".to_string(), Tld::Com))
            .unwrap();
        stats.unreachable = 100;
        store.record(snap);
        let point = store.series("op.net", &[Tld::Com])[0];
        assert_eq!(point.observed(), 0);
        assert_eq!(point.dnskey_fraction(), 0.0);
        assert_eq!(point.full_fraction(), 0.0);
    }

    #[test]
    fn csv_fills_operator_gaps_with_zero_rows() {
        // Day 0: op.net has cells in com and net. Day 7: only com — the
        // net row must still appear, explicitly zero.
        let mut store = LongitudinalStore::new();
        let mut first = snapshot(0, 10, 5);
        first.cells.insert(
            ("op.net".to_string(), Tld::Net),
            OperatorStats {
                domains: 7,
                ..OperatorStats::default()
            },
        );
        store.record(first);
        store.record(snapshot(7, 12, 6));
        let csv = store.to_csv("op.net");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5, "header + 2 TLDs × 2 snapshots");
        assert_eq!(lines[2], "2015-01-01,op.net,net,7,0,0,0,0,0");
        assert_eq!(lines[4], "2015-01-08,op.net,net,0,0,0,0,0,0");
        let extended: Vec<String> = store
            .to_csv_extended("op.net")
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(extended.len(), 5);
        assert_eq!(extended[4], "2015-01-08,op.net,net,0,0,0,0,0,0,0,0");
    }

    #[test]
    fn latest_and_tld_series() {
        let mut store = LongitudinalStore::new();
        assert!(store.latest().is_none());
        store.record(snapshot(0, 10, 5));
        store.record(snapshot(1, 12, 6));
        assert_eq!(store.latest().unwrap().date, SimDate(1));
        let tld_series = store.tld_series(Tld::Com);
        assert_eq!(tld_series.len(), 2);
        assert_eq!(tld_series[1].stats.with_dnskey, 12);
    }
}

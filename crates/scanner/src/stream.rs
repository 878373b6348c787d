//! Streaming snapshot store: campaigns that spill instead of materialize.
//!
//! [`crate::LongitudinalStore`] keeps every snapshot of a campaign in
//! memory. Each snapshot is already aggregated — O(operators × TLDs)
//! cells, not O(domains) — so writing one out is a sliver of the day it
//! took to scan, and a population-scale campaign simply appends each
//! snapshot to a file as it is taken:
//!
//! * [`SnapshotWriter`] spills each finished [`Snapshot`] to a compact
//!   binary row format (append-only, date-ordered), so the campaign's
//!   resident set stays bounded by one day's accumulators no matter how
//!   many snapshots the window holds;
//! * [`StreamedStore`] replays a spill file into the exact CSV exports
//!   of [`crate::LongitudinalStore`] — byte-identical, by construction
//!   of the same gap-day zero-filling in two passes over the file;
//! * [`scan_campaign_streamed`] runs a cached campaign whose sink is
//!   [`SnapshotWriter::record`]; an I/O error ends it.
//!
//! ## Spill format
//!
//! Little-endian, append-only; one frame per snapshot:
//!
//! ```text
//! magic  "DSECSNAP" (8 bytes, file head only)  version u16 = 1
//! frame: date u32 | cell_count u32 | cell*
//! cell:  tld u8 | op_len u16 | op bytes | 8 × u64 counters
//! ```
//!
//! Cells are written in the snapshot's `BTreeMap` order (operator, then
//! TLD), so a spill file is a deterministic function of the campaign.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use dsec_ecosystem::{SimDate, Tld, World, ALL_TLDS};

use crate::cache::ScanCache;
use crate::snapshot::{OperatorStats, Snapshot};
use crate::store::{csv_header, csv_row};
use crate::CampaignConfig;

const MAGIC: &[u8; 8] = b"DSECSNAP";
const VERSION: u16 = 1;

/// Serializes snapshots into an append-only spill file.
#[derive(Debug)]
pub struct SnapshotWriter {
    out: BufWriter<File>,
    snapshots: u32,
    last_date: Option<SimDate>,
}

impl SnapshotWriter {
    /// Creates (truncating) the spill file and writes the header.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        Ok(SnapshotWriter {
            out,
            snapshots: 0,
            last_date: None,
        })
    }

    /// Appends one snapshot frame (dates must be non-decreasing, exactly
    /// as for [`crate::LongitudinalStore::record`]).
    pub fn record(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        if let Some(last) = self.last_date {
            assert!(
                last <= snapshot.date,
                "snapshots must be appended in date order"
            );
        }
        self.last_date = Some(snapshot.date);
        self.out.write_all(&snapshot.date.0.to_le_bytes())?;
        self.out
            .write_all(&(snapshot.cells.len() as u32).to_le_bytes())?;
        for ((operator, tld), stats) in &snapshot.cells {
            self.out.write_all(&[*tld as u8])?;
            let op = operator.as_bytes();
            self.out.write_all(&(op.len() as u16).to_le_bytes())?;
            self.out.write_all(op)?;
            for v in stats.counters() {
                self.out.write_all(&v.to_le_bytes())?;
            }
        }
        self.snapshots += 1;
        Ok(())
    }

    /// Flushes and closes the file, returning the snapshot count.
    pub fn finish(mut self) -> io::Result<u32> {
        self.out.flush()?;
        Ok(self.snapshots)
    }
}

fn read_exact<const N: usize>(input: &mut impl Read) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    input.read_exact(&mut buf)?;
    Ok(buf)
}

fn tld_from_u8(b: u8) -> io::Result<Tld> {
    ALL_TLDS
        .iter()
        .copied()
        .find(|&t| t as u8 == b)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown TLD tag"))
}

/// Replays every frame of a spill file, invoking `visit` with each
/// snapshot's date and cells (in stored — i.e. `BTreeMap` — order).
/// Memory is bounded by the largest single frame.
fn replay(
    path: &Path,
    mut visit: impl FnMut(SimDate, &[(String, Tld, OperatorStats)]),
) -> io::Result<()> {
    let mut input = BufReader::new(File::open(path)?);
    let magic = read_exact::<8>(&mut input)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let version = u16::from_le_bytes(read_exact::<2>(&mut input)?);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unsupported spill version",
        ));
    }
    let mut cells: Vec<(String, Tld, OperatorStats)> = Vec::new();
    loop {
        let date = match read_exact::<4>(&mut input) {
            Ok(bytes) => SimDate(u32::from_le_bytes(bytes)),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let count = u32::from_le_bytes(read_exact::<4>(&mut input)?);
        cells.clear();
        cells.reserve(count as usize);
        for _ in 0..count {
            let tld = tld_from_u8(read_exact::<1>(&mut input)?[0])?;
            let op_len = u16::from_le_bytes(read_exact::<2>(&mut input)?) as usize;
            let mut op = vec![0u8; op_len];
            input.read_exact(&mut op)?;
            let operator = String::from_utf8(op)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "operator not UTF-8"))?;
            let mut counters = [0u64; 8];
            for c in &mut counters {
                *c = u64::from_le_bytes(read_exact::<8>(&mut input)?);
            }
            cells.push((
                operator,
                tld,
                OperatorStats {
                    domains: counters[0],
                    with_dnskey: counters[1],
                    with_ds: counters[2],
                    fully_deployed: counters[3],
                    partially_deployed: counters[4],
                    misconfigured: counters[5],
                    unreachable: counters[6],
                    indeterminate: counters[7],
                },
            ));
        }
        visit(date, &cells);
    }
}

/// A finished spill file: the on-disk counterpart of
/// [`crate::LongitudinalStore`], replayed on demand.
#[derive(Debug, Clone)]
pub struct StreamedStore {
    path: PathBuf,
    snapshots: u32,
}

impl StreamedStore {
    /// Opens an existing spill file (validates the header and counts
    /// frames).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut snapshots = 0u32;
        replay(&path, |_, _| snapshots += 1)?;
        Ok(StreamedStore { path, snapshots })
    }

    /// The spill file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of snapshots in the file.
    pub fn len(&self) -> u32 {
        self.snapshots
    }

    /// Whether the file holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots == 0
    }

    /// Rebuilds the full in-memory store (tests and small campaigns; a
    /// population-scale consumer should replay instead).
    pub fn to_longitudinal(&self) -> io::Result<crate::LongitudinalStore> {
        let mut store = crate::LongitudinalStore::new();
        replay(&self.path, |date, cells| {
            // A frame is already in map order, so `collect` bulk-builds
            // full leaves; inserting one cell at a time would split them
            // and leave each about half empty.
            let cells = cells
                .iter()
                .map(|(operator, tld, stats)| ((operator.clone(), *tld), *stats))
                .collect();
            store.record(Snapshot { date, cells });
        })?;
        Ok(store)
    }

    /// The TLDs `operator` was ever seen in, sorted — the row skeleton
    /// both CSV exports share with [`crate::LongitudinalStore`].
    fn operator_tlds(&self, operator: &str) -> io::Result<Vec<Tld>> {
        let mut tlds: Vec<Tld> = Vec::new();
        replay(&self.path, |_, cells| {
            for (op, tld, _) in cells {
                if op == operator && !tlds.contains(tld) {
                    tlds.push(*tld);
                }
            }
        })?;
        tlds.sort();
        Ok(tlds)
    }

    /// Streams one operator's rows — `(date, tld, stats)` with explicit
    /// all-zero cells on gap days, exactly like the in-memory store's
    /// row builder — into `emit`. Two passes over the file; memory stays
    /// O(TLDs), independent of campaign length.
    fn rows(
        &self,
        operator: &str,
        mut emit: impl FnMut(SimDate, Tld, OperatorStats),
    ) -> io::Result<()> {
        let tlds = self.operator_tlds(operator)?;
        replay(&self.path, |date, cells| {
            for &tld in &tlds {
                let stats = cells
                    .iter()
                    .find(|(op, t, _)| op == operator && *t == tld)
                    .map(|(_, _, s)| *s)
                    .unwrap_or_default();
                emit(date, tld, stats);
            }
        })
    }

    /// CSV of one operator's series, byte-identical to
    /// [`crate::LongitudinalStore::to_csv`] over the same snapshots.
    pub fn to_csv(&self, operator: &str) -> io::Result<String> {
        self.csv(operator, false)
    }

    /// Degradation-aware CSV, byte-identical to
    /// [`crate::LongitudinalStore::to_csv_extended`].
    pub fn to_csv_extended(&self, operator: &str) -> io::Result<String> {
        self.csv(operator, true)
    }

    fn csv(&self, operator: &str, extended: bool) -> io::Result<String> {
        let mut out = csv_header(extended);
        self.rows(operator, |date, tld, stats| {
            csv_row(&mut out, operator, date, tld, &stats, extended);
        })?;
        Ok(out)
    }
}

/// [`crate::scan_campaign_cached`] spilling to disk: each snapshot is
/// appended to the file at `path` as soon as it is taken, so the
/// campaign's resident set is one day of accumulators — independent of
/// window length. Scan results are byte-identical to the in-memory path.
/// An I/O error stops the campaign where it happened.
pub fn scan_campaign_streamed(
    world: &mut World,
    config: &CampaignConfig,
    cache: &mut ScanCache,
    path: &Path,
) -> io::Result<StreamedStore> {
    let mut writer = SnapshotWriter::create(path)?;
    crate::run_campaign(world, config, cache, |snapshot| writer.record(&snapshot))?;
    // The writer counted what it wrote; replaying the file to count it
    // again is for files this process did not write.
    Ok(StreamedStore {
        path: path.to_path_buf(),
        snapshots: writer.finish()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LongitudinalStore;
    use std::collections::BTreeMap;

    fn snapshot(day: u32, cells: &[(&str, Tld, u64)]) -> Snapshot {
        let mut map = BTreeMap::new();
        for &(op, tld, domains) in cells {
            map.insert(
                (op.to_string(), tld),
                OperatorStats {
                    domains,
                    with_dnskey: domains / 2,
                    ..OperatorStats::default()
                },
            );
        }
        Snapshot {
            date: SimDate(day),
            cells: map,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dsec-stream-test-{}-{}", std::process::id(), name))
    }

    #[test]
    fn roundtrip_preserves_snapshots() {
        let path = temp_path("roundtrip");
        let snaps = [
            snapshot(0, &[("a.net", Tld::Com, 10), ("b.net", Tld::Nl, 3)]),
            snapshot(7, &[("a.net", Tld::Com, 12)]),
        ];
        let mut writer = SnapshotWriter::create(&path).unwrap();
        for s in &snaps {
            writer.record(s).unwrap();
        }
        assert_eq!(writer.finish().unwrap(), 2);

        let store = StreamedStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        let rebuilt = store.to_longitudinal().unwrap();
        assert_eq!(rebuilt.snapshots().len(), 2);
        assert_eq!(rebuilt.snapshots()[0].cells, snaps[0].cells);
        assert_eq!(rebuilt.snapshots()[1].cells, snaps[1].cells);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_replay_matches_in_memory_store_including_gap_days() {
        let path = temp_path("csv");
        // a.net leaves .nl after day 0: the replayed CSV must zero-fill
        // exactly like the in-memory store.
        let snaps = [
            snapshot(0, &[("a.net", Tld::Com, 10), ("a.net", Tld::Nl, 3)]),
            snapshot(7, &[("a.net", Tld::Com, 12), ("c.net", Tld::Se, 1)]),
        ];
        let mut memory = LongitudinalStore::new();
        let mut writer = SnapshotWriter::create(&path).unwrap();
        for s in &snaps {
            memory.record(s.clone());
            writer.record(s).unwrap();
        }
        writer.finish().unwrap();
        let streamed = StreamedStore::open(&path).unwrap();
        for op in ["a.net", "c.net", "ghost.net"] {
            assert_eq!(streamed.to_csv(op).unwrap(), memory.to_csv(op));
            assert_eq!(
                streamed.to_csv_extended(op).unwrap(),
                memory.to_csv_extended(op)
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_campaign_reports_an_unwritable_spill_path() {
        let mut pw = dsec_workloads::build(&dsec_workloads::PopulationConfig::tiny());
        let config = CampaignConfig::new(pw.world.today.plus_days(14), 7);
        // No such directory: the file cannot be created.
        let missing = temp_path("no-such-dir").join("spill");
        let mut cache = ScanCache::new();
        let result = scan_campaign_streamed(&mut pw.world, &config, &mut cache, &missing);
        assert!(result.is_err(), "create failed, yet {result:?}");
        // A device that accepts no byte: creation succeeds, the writes
        // behind `record`/`finish` do not.
        let full = Path::new("/dev/full");
        if full.exists() {
            let result = scan_campaign_streamed(&mut pw.world, &config, &mut cache, full);
            assert!(result.is_err(), "nothing was written, yet {result:?}");
        }
    }

    #[test]
    fn open_rejects_garbage() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"not a spill file").unwrap();
        assert!(StreamedStore::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

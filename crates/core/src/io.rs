//! Persistence for characterization data: save a [`BlockPool`] to CSV and
//! load it back, so a (slow, real-hardware-style) characterization pass can
//! be reused across experiment runs — the paper's workflow of collecting
//! once per P/E point and analyzing many times.
//!
//! Format: a `# strings=S pools=P` header, then one row per block:
//!
//! ```text
//! pool,chip,plane,block,pe,tbers_us,tprog0,tprog1,...
//! ```

use crate::profile::{BlockPool, BlockProfile};
use flash_model::{BlockAddr, BlockId, ChipId, PlaneId};
use std::fmt;
use std::io::{BufRead, Write};
use std::str::FromStr;

/// Errors from pool (de)serialization.
#[derive(Debug)]
pub enum PoolIoError {
    /// A row could not be parsed.
    Malformed {
        /// 1-based row number (excluding the header).
        row: usize,
        /// Problem description.
        reason: String,
    },
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// Rows describe an inconsistent pool (see inner error).
    Pool(crate::PvError),
}

impl fmt::Display for PoolIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolIoError::Malformed { row, reason } => write!(f, "pool CSV row {row}: {reason}"),
            PoolIoError::Io(e) => write!(f, "pool CSV I/O failed: {e}"),
            PoolIoError::Pool(e) => write!(f, "pool CSV is inconsistent: {e}"),
        }
    }
}

impl std::error::Error for PoolIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolIoError::Io(e) => Some(e),
            PoolIoError::Pool(e) => Some(e),
            PoolIoError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for PoolIoError {
    fn from(e: std::io::Error) -> Self {
        PoolIoError::Io(e)
    }
}

/// Writes a pool as CSV.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_pool<W: Write>(pool: &BlockPool, mut w: W) -> Result<(), PoolIoError> {
    writeln!(w, "# strings={} pools={}", pool.strings(), pool.pool_count())?;
    writeln!(w, "pool,chip,plane,block,pe,tbers_us,tprog_us...")?;
    for p in 0..pool.pool_count() {
        for b in pool.pool(p) {
            let a = b.addr();
            write!(w, "{p},{},{},{},{},{}", a.chip.0, a.plane.0, a.block.0, b.pe(), b.tbers_us())?;
            for t in b.tprog_us() {
                write!(w, ",{t}")?;
            }
            writeln!(w)?;
        }
    }
    Ok(())
}

/// Largest `pools=` header [`read_pool`] accepts. A pool is one chip's
/// plane, and chips have 16-bit ids; the cap keeps a corrupt header from
/// sizing the pool set.
const MAX_POOLS: usize = u16::MAX as usize;

/// Reads a pool back from CSV produced by [`write_pool`].
///
/// Every row is validated before it touches the pool set: the integer
/// columns must parse as integers of their type, `pool` must be below the
/// `# pools=` header (which must precede the first row and be at most
/// 65,535), and every latency must be finite and positive.
///
/// # Errors
///
/// Returns [`PoolIoError`] on malformed rows, I/O failure or inconsistent
/// pool shapes.
pub fn read_pool<R: BufRead>(r: R) -> Result<BlockPool, PoolIoError> {
    let mut strings: u16 = 4;
    let mut pools: usize = 0;
    let mut out: Option<BlockPool> = None;
    let mut row_no = 0usize;
    for line in r.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(meta) = trimmed.strip_prefix('#') {
            for field in meta.split_whitespace() {
                let header = |name: &str, reason: String| PoolIoError::Malformed {
                    row: 0,
                    reason: format!("bad {name}= header: {reason}"),
                };
                if let Some(v) = field.strip_prefix("strings=") {
                    strings = v.parse().map_err(|e| header("strings", format!("{e}")))?;
                    if strings == 0 {
                        return Err(header("strings", "must be positive".to_string()));
                    }
                }
                if let Some(v) = field.strip_prefix("pools=") {
                    pools = v.parse().map_err(|e| header("pools", format!("{e}")))?;
                    if pools == 0 || pools > MAX_POOLS {
                        return Err(header("pools", format!("must be in 1..={MAX_POOLS}")));
                    }
                }
            }
            continue;
        }
        if trimmed.starts_with("pool,") {
            continue; // column header
        }
        row_no += 1;
        let malformed = |reason: String| PoolIoError::Malformed { row: row_no, reason };
        let mut fields = trimmed.split(',');
        let pool_idx: usize = parse_field(fields.next(), "pool").map_err(malformed)?;
        let chip: u16 = parse_field(fields.next(), "chip").map_err(malformed)?;
        let plane: u16 = parse_field(fields.next(), "plane").map_err(malformed)?;
        let block: u32 = parse_field(fields.next(), "block").map_err(malformed)?;
        let pe: u32 = parse_field(fields.next(), "pe").map_err(malformed)?;
        let tbers = parse_latency(fields.next(), "tbers_us").map_err(malformed)?;
        let tprog = fields
            .map(|f| parse_latency(Some(f), "tprog value"))
            .collect::<Result<Vec<f64>, _>>()
            .map_err(malformed)?;
        if tprog.is_empty() {
            return Err(malformed("row has no word-line latencies".to_string()));
        }
        if pools == 0 {
            return Err(malformed("no `# pools=` header before the first row".to_string()));
        }
        if pool_idx >= pools {
            return Err(malformed(format!("pool {pool_idx} out of range for pools={pools}")));
        }
        let pool = out.get_or_insert_with(|| BlockPool::new(pools, strings));
        let addr = BlockAddr::new(ChipId(chip), PlaneId(plane), BlockId(block));
        pool.push(pool_idx, BlockProfile::new(addr, pe, tprog, tbers))
            .map_err(PoolIoError::Pool)?;
    }
    out.ok_or(PoolIoError::Malformed { row: 0, reason: "no rows".to_string() })
}

/// Parses one column as its integer (or float) type, naming it on failure.
fn parse_field<T: FromStr>(field: Option<&str>, name: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    let field = field.ok_or_else(|| format!("missing {name}"))?.trim();
    field.parse().map_err(|e| format!("bad {name} {field:?}: {e}"))
}

/// Parses a latency column, which must be finite and positive.
fn parse_latency(field: Option<&str>, name: &str) -> Result<f64, String> {
    let v: f64 = parse_field(field, name)?;
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(format!("{name} must be finite and positive, got {v}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Characterizer;
    use flash_model::{FlashArray, FlashConfig};

    #[test]
    fn roundtrip_preserves_every_profile() {
        let config = FlashConfig::small_test();
        let array = FlashArray::new(config.clone(), 5);
        let pool = Characterizer::new(&config).snapshot(array.latency_model(), 100);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        let loaded = read_pool(buf.as_slice()).unwrap();
        assert_eq!(loaded.pool_count(), pool.pool_count());
        assert_eq!(loaded.len(), pool.len());
        assert_eq!(loaded.strings(), pool.strings());
        for p in pool.iter() {
            let q = loaded.profile(p.addr()).unwrap();
            assert_eq!(q.tprog_us(), p.tprog_us());
            assert_eq!(q.tbers_us(), p.tbers_us());
            assert_eq!(q.pe(), p.pe());
        }
    }

    #[test]
    fn rejects_empty_input() {
        assert!(read_pool(b"" as &[u8]).is_err());
    }

    #[test]
    fn rejects_rows_without_latencies() {
        let err = read_pool(b"0,0,0,0,0,3000\n" as &[u8]).unwrap_err();
        assert!(err.to_string().contains("no word-line latencies"), "{err}");
    }

    #[test]
    fn rejects_garbage_with_row_number() {
        let data = b"# strings=4 pools=1\n0,0,0,0,0,3000,1.0,2.0,3.0,4.0\nnot,a,row\n" as &[u8];
        let err = read_pool(data).unwrap_err();
        assert!(err.to_string().contains("row 2"), "{err}");
    }

    /// The `Malformed` reason of a one-row pool file with the given header
    /// and row.
    fn malformed_reason(header: &str, row: &str) -> String {
        let data = format!("{header}\n{row}\n");
        match read_pool(data.as_bytes()) {
            Err(PoolIoError::Malformed { reason, .. }) => reason,
            other => panic!("expected Malformed for {row:?}, got {other:?}"),
        }
    }

    const HEADER: &str = "# strings=4 pools=2";

    #[test]
    fn rejects_negative_pool() {
        let reason = malformed_reason(HEADER, "-1,0,0,0,0,3000,1,2,3,4");
        assert!(reason.contains("bad pool"), "{reason}");
    }

    #[test]
    fn rejects_fractional_integer_columns() {
        let reason = malformed_reason(HEADER, "0,1.5,0,0,0,3000,1,2,3,4");
        assert!(reason.contains("bad chip"), "{reason}");
        let reason = malformed_reason(HEADER, "0,0,0,7,1e3,3000,1,2,3,4");
        assert!(reason.contains("bad pe"), "{reason}");
    }

    #[test]
    fn rejects_non_finite_or_non_positive_latencies() {
        for (row, column) in [
            ("0,0,0,0,0,3000,1,NaN,3,4", "tprog"),
            ("0,0,0,0,0,3000,1,2,inf,4", "tprog"),
            ("0,0,0,0,0,3000,1,2,3,0", "tprog"),
            ("0,0,0,0,0,NaN,1,2,3,4", "tbers_us"),
            ("0,0,0,0,0,-3000,1,2,3,4", "tbers_us"),
        ] {
            let reason = malformed_reason(HEADER, row);
            assert!(reason.contains(column) && reason.contains("finite and positive"), "{reason}");
        }
    }

    #[test]
    fn rejects_huge_pool_index_without_allocating() {
        let reason = malformed_reason(HEADER, "1e15,0,0,0,0,3000,1,2,3,4");
        assert!(reason.contains("bad pool"), "{reason}");
        let reason = malformed_reason(HEADER, "1000000000000000,0,0,0,0,3000,1,2,3,4");
        assert!(reason.contains("out of range for pools=2"), "{reason}");
    }

    #[test]
    fn rejects_pool_at_or_past_header_count() {
        let reason = malformed_reason(HEADER, "2,0,0,0,0,3000,1,2,3,4");
        assert!(reason.contains("pool 2 out of range"), "{reason}");
    }

    #[test]
    fn rejects_rows_before_pools_header() {
        let reason = malformed_reason("# strings=4", "0,0,0,0,0,3000,1,2,3,4");
        assert!(reason.contains("no `# pools=` header"), "{reason}");
    }

    #[test]
    fn rejects_out_of_range_headers() {
        for header in ["# strings=4 pools=0", "# strings=4 pools=1000000000000000", "# strings=0"] {
            let reason = malformed_reason(header, "0,0,0,0,0,3000,1,2,3,4");
            assert!(reason.contains("header"), "{header}: {reason}");
        }
    }

    #[test]
    fn assemblies_work_on_loaded_pools() {
        use crate::assembly::{Assembler, QstrMed};
        let config = FlashConfig::small_test();
        let array = FlashArray::new(config.clone(), 2);
        let pool = Characterizer::new(&config).snapshot(array.latency_model(), 0);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        let loaded = read_pool(buf.as_slice()).unwrap();
        let sbs = QstrMed::new().assemble(&loaded);
        assert_eq!(sbs.len(), loaded.min_pool_len());
    }
}

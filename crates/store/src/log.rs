//! CRC-framed append-only log files, the durability primitive under
//! both the plan segments and the dead-letter queue.
//!
//! A log file is a 12-byte header (`SDPLOG01` magic + a `u32` kind
//! tag) followed by records framed as `[len: u32 LE][crc32: u32 LE]
//! [payload]`. The CRC covers the payload only; the length is bounded
//! so a corrupt length word cannot trigger a giant allocation.
//!
//! Recovery reads records until the first frame that is short, over
//! long, or fails its CRC, then **truncates the file there**: a crash
//! mid-append leaves a torn tail, and everything before it is intact
//! by construction (appends are sequential and flushed in frame
//! order). A torn frame and a corrupt mid-file frame are
//! indistinguishable without a second checksum pass, so both are
//! treated as end-of-log — the records after a corrupt frame were
//! written after it and would be suspect anyway.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::StoreError;

/// File magic for every `sdp-store` log file.
pub const LOG_MAGIC: [u8; 8] = *b"SDPLOG01";

/// Largest accepted record payload (a plan for 64 relations encodes
/// in a few KiB; 16 MiB is generous headroom and a firm bound against
/// corrupt length words).
pub const MAX_RECORD_BYTES: u32 = 16 << 20;

/// Bytes before the first frame of a log file: magic + kind tag.
pub(crate) const HEADER_BYTES: u64 = 12;
const FRAME_BYTES: usize = 8;

/// Bytes a record of `payload_len` payload bytes occupies on disk.
pub(crate) fn frame_len(payload_len: usize) -> u64 {
    (FRAME_BYTES + payload_len) as u64
}

/// Read the payload of the frame that starts `offset` bytes into the
/// log file `path` (open as `file`) into `payload`, replacing its
/// contents. The length word is bounded by [`MAX_RECORD_BYTES`] and the
/// CRC is checked, so a byte that rotted — or an offset that is not a
/// frame boundary — is a [`StoreError::Format`], not a bad plan.
pub(crate) fn read_frame(
    file: &mut File,
    path: &Path,
    offset: u64,
    payload: &mut Vec<u8>,
) -> Result<(), StoreError> {
    let damaged = |what: &str| {
        StoreError::Format(format!(
            "{}: frame at offset {offset} {what}",
            path.display()
        ))
    };
    let read_error = |e: std::io::Error| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => damaged("is cut short"),
        _ => StoreError::io(path, e),
    };
    let mut frame = [0u8; FRAME_BYTES];
    file.seek(SeekFrom::Start(offset))
        .and_then(|_| file.read_exact(&mut frame))
        .map_err(read_error)?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(frame[4..].try_into().expect("4 bytes"));
    if len > MAX_RECORD_BYTES {
        return Err(damaged("has a corrupt length word"));
    }
    payload.resize(len as usize, 0);
    file.read_exact(payload).map_err(read_error)?;
    if crc32(payload) != crc {
        return Err(damaged("fails its CRC"));
    }
    Ok(())
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Hand-rolled like every
/// other codec in the workspace; the table is built on first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// What recovery found (and did) while opening one log file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Intact records recovered.
    pub records: u64,
    /// Whether a torn or corrupt tail was truncated away.
    pub truncated: bool,
    /// Bytes discarded by the truncation.
    pub truncated_bytes: u64,
}

impl RecoveryStats {
    /// Fold another file's recovery outcome into this one.
    pub fn merge(&mut self, other: RecoveryStats) {
        self.records += other.records;
        self.truncated |= other.truncated;
        self.truncated_bytes += other.truncated_bytes;
    }
}

/// One open CRC-framed log file, positioned for appends.
#[derive(Debug)]
pub struct FramedLog {
    path: PathBuf,
    file: File,
    /// Clean length in bytes (header + intact frames).
    len: u64,
}

impl FramedLog {
    /// Open (creating if absent) the log at `path` with the given kind
    /// tag, recover its intact records, and truncate any torn tail.
    /// Returns the log positioned for appends plus the recovered
    /// payloads in write order.
    pub fn open(path: &Path, kind: u32) -> Result<(Self, Vec<Vec<u8>>, RecoveryStats), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::io(path, e))?;
        let total = file.metadata().map_err(|e| StoreError::io(path, e))?.len();

        if total < HEADER_BYTES {
            // Fresh file (or a crash before even the header landed):
            // (re)write the header and start empty.
            file.set_len(0).map_err(|e| StoreError::io(path, e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| StoreError::io(path, e))?;
            let mut header = Vec::with_capacity(HEADER_BYTES as usize);
            header.extend_from_slice(&LOG_MAGIC);
            header.extend_from_slice(&kind.to_le_bytes());
            file.write_all(&header)
                .map_err(|e| StoreError::io(path, e))?;
            file.flush().map_err(|e| StoreError::io(path, e))?;
            let truncated = total > 0;
            return Ok((
                FramedLog {
                    path: path.to_path_buf(),
                    file,
                    len: HEADER_BYTES,
                },
                Vec::new(),
                RecoveryStats {
                    records: 0,
                    truncated,
                    truncated_bytes: total,
                },
            ));
        }

        file.seek(SeekFrom::Start(0))
            .map_err(|e| StoreError::io(path, e))?;
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)
            .map_err(|e| StoreError::io(path, e))?;
        if header[..8] != LOG_MAGIC {
            return Err(StoreError::Format(format!(
                "{}: bad magic (not an sdp-store log)",
                path.display()
            )));
        }
        let found_kind = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if found_kind != kind {
            return Err(StoreError::Format(format!(
                "{}: log kind {found_kind} where {kind} expected",
                path.display()
            )));
        }

        let mut body = Vec::with_capacity((total - HEADER_BYTES) as usize);
        file.read_to_end(&mut body)
            .map_err(|e| StoreError::io(path, e))?;

        let mut payloads = Vec::new();
        let mut clean = 0usize; // offset into `body` past the last intact frame
        loop {
            let rest = &body[clean..];
            if rest.len() < FRAME_BYTES {
                break; // short frame header (possibly zero: clean EOF)
            }
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
            if len > MAX_RECORD_BYTES {
                break; // corrupt length word
            }
            let end = FRAME_BYTES + len as usize;
            if rest.len() < end {
                break; // torn payload
            }
            let payload = &rest[FRAME_BYTES..end];
            if crc32(payload) != crc {
                break; // corrupt payload
            }
            payloads.push(payload.to_vec());
            clean += end;
        }

        let clean_len = HEADER_BYTES + clean as u64;
        let truncated = clean_len < total;
        if truncated {
            file.set_len(clean_len)
                .map_err(|e| StoreError::io(path, e))?;
        }
        file.seek(SeekFrom::Start(clean_len))
            .map_err(|e| StoreError::io(path, e))?;

        let records = payloads.len() as u64;
        Ok((
            FramedLog {
                path: path.to_path_buf(),
                file,
                len: clean_len,
            },
            payloads,
            RecoveryStats {
                records,
                truncated,
                truncated_bytes: total - clean_len,
            },
        ))
    }

    /// Append one record and flush it to the OS. Returns the new clean
    /// length.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        debug_assert!(payload.len() as u64 <= MAX_RECORD_BYTES as u64);
        let mut frame = Vec::with_capacity(FRAME_BYTES + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.file
            .flush()
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.len += frame.len() as u64;
        Ok(self.len)
    }

    /// Current clean length in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The file this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdp-store-log-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.log")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let path = temp_path("roundtrip");
        {
            let (mut log, recovered, stats) = FramedLog::open(&path, 1).unwrap();
            assert!(recovered.is_empty());
            assert!(!stats.truncated);
            log.append(b"alpha").unwrap();
            log.append(b"").unwrap();
            log.append(&[0xffu8; 300]).unwrap();
        }
        let (_, recovered, stats) = FramedLog::open(&path, 1).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered[0], b"alpha");
        assert_eq!(recovered[1], b"");
        assert_eq!(recovered[2], vec![0xffu8; 300]);
        assert_eq!(stats.records, 3);
        assert!(!stats.truncated);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = temp_path("torn");
        {
            let (mut log, _, _) = FramedLog::open(&path, 1).unwrap();
            log.append(b"first").unwrap();
            log.append(b"second-record").unwrap();
        }
        // Tear the file mid-way through the second record's payload.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);

        let (mut log, recovered, stats) = FramedLog::open(&path, 1).unwrap();
        assert_eq!(recovered, vec![b"first".to_vec()]);
        assert!(stats.truncated);
        assert_eq!(stats.truncated_bytes, 8 + 13 - 5);
        // The log is clean again: appends land after the intact tail.
        log.append(b"third").unwrap();
        drop(log);
        let (_, recovered, stats) = FramedLog::open(&path, 1).unwrap();
        assert_eq!(recovered, vec![b"first".to_vec(), b"third".to_vec()]);
        assert!(!stats.truncated);
    }

    #[test]
    fn corrupt_crc_ends_the_log_there() {
        let path = temp_path("crc");
        {
            let (mut log, _, _) = FramedLog::open(&path, 1).unwrap();
            log.append(b"keep").unwrap();
            log.append(b"mangle-me").unwrap();
        }
        // Flip a byte inside the second payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovered, stats) = FramedLog::open(&path, 1).unwrap();
        assert_eq!(recovered, vec![b"keep".to_vec()]);
        assert!(stats.truncated);
    }

    #[test]
    fn read_frame_returns_the_payload_or_a_typed_error() {
        let path = temp_path("read-frame");
        let (first, second) = {
            let (mut log, _, _) = FramedLog::open(&path, 1).unwrap();
            let first = log.len_bytes();
            let second = log.append(b"alpha").unwrap();
            log.append(&[7u8; 300]).unwrap();
            (first, second)
        };
        assert_eq!((first, second), (HEADER_BYTES, HEADER_BYTES + frame_len(5)));
        let mut file = File::open(&path).unwrap();
        let mut payload = vec![0xaa; 1000]; // reused: contents replaced
        read_frame(&mut file, &path, second, &mut payload).unwrap();
        assert_eq!(payload, vec![7u8; 300]);
        read_frame(&mut file, &path, first, &mut payload).unwrap();
        assert_eq!(payload, b"alpha");

        // Not a frame boundary: whatever the bytes there say, an error.
        let err = read_frame(&mut file, &path, second + 3, &mut payload).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)), "{err}");
        // Past the end: the read comes up short.
        let err = read_frame(&mut file, &path, 1 << 20, &mut payload).unwrap_err();
        assert!(
            matches!(&err, StoreError::Format(m) if m.contains("cut short")),
            "{err}"
        );

        // A rotted payload byte fails the CRC; a rotted length word is
        // bounded before anything is allocated for it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[second as usize + FRAME_BYTES + 10] ^= 0x40;
        bytes[first as usize + 3] = 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut file = File::open(&path).unwrap();
        let err = read_frame(&mut file, &path, second, &mut payload).unwrap_err();
        assert!(
            matches!(&err, StoreError::Format(m) if m.contains("CRC")),
            "{err}"
        );
        let err = read_frame(&mut file, &path, first, &mut payload).unwrap_err();
        assert!(
            matches!(&err, StoreError::Format(m) if m.contains("length word")),
            "{err}"
        );
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let path = temp_path("kind");
        {
            FramedLog::open(&path, 1).unwrap();
        }
        let err = FramedLog::open(&path, 2).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)), "{err}");
    }
}

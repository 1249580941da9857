//! The GASS wire protocol: GSI-authenticated GET/PUT/APPEND with ranges.

use crate::file::FileData;
use gsi::ProxyCredential;
use std::fmt;

/// Why a transfer failed.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferError {
    /// The requested path does not exist on the server.
    NotFound(String),
    /// GSI verification of the supplied credential failed.
    AuthFailed(String),
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::NotFound(p) => write!(f, "no such file: {p}"),
            TransferError::AuthFailed(e) => write!(f, "authentication failed: {e}"),
        }
    }
}

impl std::error::Error for TransferError {}

/// Client → server requests. Every request carries the requester's proxy
/// credential ("As usual, GSI mechanisms are used for authentication",
/// §3.4) and a correlation id.
#[derive(Debug)]
pub enum GassRequest {
    /// Fetch `[offset, offset+limit)` of a file. `limit == u64::MAX` means
    /// "to the end". Crash recovery uses a nonzero `offset` to resume
    /// output streaming where it left off (§3.2).
    Get {
        /// Correlation id.
        request_id: u64,
        /// Requester credential.
        credential: ProxyCredential,
        /// Path on the server.
        path: String,
        /// Starting byte.
        offset: u64,
        /// Maximum bytes to return.
        limit: u64,
    },
    /// Create/replace a file.
    Put {
        /// Correlation id.
        request_id: u64,
        /// Requester credential.
        credential: ProxyCredential,
        /// Path on the server.
        path: String,
        /// Contents.
        data: FileData,
    },
    /// Append to a file (stdout/stderr streaming, G-Cat chunks).
    Append {
        /// Correlation id.
        request_id: u64,
        /// Requester credential.
        credential: ProxyCredential,
        /// Path on the server.
        path: String,
        /// Chunk to append.
        data: FileData,
    },
    /// Write `data` at byte `offset`, extending the file as needed.
    /// Idempotent for identical chunks: bytes already present at the
    /// offset are not duplicated, which makes retransmission after a lost
    /// acknowledgement safe (the JobManager's stdout staging and G-Cat
    /// both rely on this).
    WriteAt {
        /// Correlation id.
        request_id: u64,
        /// Requester credential.
        credential: ProxyCredential,
        /// Path on the server.
        path: String,
        /// Byte offset to place the chunk at.
        offset: u64,
        /// Chunk contents.
        data: FileData,
    },
    /// Query a file's current size (G-Cat viewers poll with this).
    Stat {
        /// Correlation id.
        request_id: u64,
        /// Requester credential.
        credential: ProxyCredential,
        /// Path on the server.
        path: String,
    },
    /// Delete a file (cache cleanup: the submit agent reclaims staged
    /// output it has finished with, like `globus-gass-cache -cleanup`).
    /// Deleting a missing file is acknowledged too — cleanup is
    /// idempotent, so a retransmitted delete is harmless.
    Delete {
        /// Correlation id.
        request_id: u64,
        /// Requester credential.
        credential: ProxyCredential,
        /// Path on the server.
        path: String,
    },
}

impl GassRequest {
    /// The correlation id of any request.
    pub fn request_id(&self) -> u64 {
        match self {
            GassRequest::Get { request_id, .. }
            | GassRequest::Put { request_id, .. }
            | GassRequest::Append { request_id, .. }
            | GassRequest::WriteAt { request_id, .. }
            | GassRequest::Stat { request_id, .. }
            | GassRequest::Delete { request_id, .. } => *request_id,
        }
    }
}

/// Server → client replies.
#[derive(Debug)]
pub enum GassReply {
    /// GET data (arrives after the modelled transfer time).
    Data {
        /// Correlation id.
        request_id: u64,
        /// The requested bytes.
        data: FileData,
        /// Total size of the file on the server (for resume bookkeeping).
        total_size: u64,
    },
    /// PUT/APPEND acknowledged.
    Ok {
        /// Correlation id.
        request_id: u64,
        /// New size of the file.
        new_size: u64,
    },
    /// STAT result.
    Size {
        /// Correlation id.
        request_id: u64,
        /// Current size.
        size: u64,
    },
    /// Failure.
    Failed {
        /// Correlation id.
        request_id: u64,
        /// The error.
        error: TransferError,
    },
}

impl GassReply {
    /// The correlation id of any reply.
    pub fn request_id(&self) -> u64 {
        match self {
            GassReply::Data { request_id, .. }
            | GassReply::Ok { request_id, .. }
            | GassReply::Size { request_id, .. }
            | GassReply::Failed { request_id, .. } => *request_id,
        }
    }
}

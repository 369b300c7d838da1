//! Socket message framing: every message on a transport TCP connection is
//! one length-delimited, checksummed frame.
//!
//! ```text
//! | u32 len (LE) | u32 crc (LE) | payload: len bytes |
//! ```
//!
//! `crc` is [`check32`] over the payload's first [`CRC_COVER`] bytes. The
//! payload's first byte is the message type; the rest is the message body,
//! little-endian throughout. Tensor data rides *inside* [`Msg::Request`] /
//! [`Msg::ResponseOk`] as a complete wire-v3 frame
//! (`murmuration_core::wire`), which carries its own checksum over every
//! body byte — so the outer crc only needs to protect the framing metadata
//! (lengths, ids, type bytes; control messages are tiny and fully
//! covered), while bulk-payload integrity rides the inner tensor checksum.
//! Re-summing megabyte bodies at this layer would buy no extra detection,
//! only latency. A corrupted *outer* frame is connection-fatal (the stream
//! can no longer be trusted to be in sync; the supervisor tears the
//! connection down and reconnects); a corrupted *inner* frame is a typed
//! per-request error.

use std::io::Read;

/// Outer-frame header bytes: length + checksum.
pub const HEADER_BYTES: usize = 8;
/// Hard cap on a single frame's payload; anything larger is corruption.
pub const MAX_PAYLOAD: usize = 1 << 30;
/// Payload prefix covered by the outer checksum: all framing metadata and
/// every control message, while self-checksummed tensor bodies are left to
/// their own (stronger, full-coverage) wire-v3 checksum.
pub const CRC_COVER: usize = 256;
/// Protocol version carried in [`Msg::Hello`].
pub const PROTO_VERSION: u8 = 1;

const TYPE_HELLO: u8 = 1;
const TYPE_REQUEST: u8 = 2;
const TYPE_RESPONSE_OK: u8 = 3;
const TYPE_RESPONSE_ERR: u8 = 4;
const TYPE_HEARTBEAT: u8 = 5;
const TYPE_HEARTBEAT_ACK: u8 = 6;
const TYPE_GOODBYE: u8 = 7;
const TYPE_CANCEL: u8 = 8;
const TYPE_GOSSIP: u8 = 9;

/// One message between a coordinator and a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// First message on every (re)connection: identifies the coordinator.
    /// `(session, req_id)` keys the worker's at-most-once dedup map.
    Hello {
        /// Coordinator session id, stable across reconnects.
        session: u64,
        /// Protocol version ([`PROTO_VERSION`]).
        version: u8,
    },
    /// Run `unit` on the tensor encoded in `frame` (a wire-v3 frame).
    Request {
        /// Request id, unique within the session; echoed in the response.
        req_id: u64,
        /// Execution unit to run.
        unit: u32,
        /// Input tensor as a complete wire-v3 frame.
        frame: Vec<u8>,
    },
    /// Successful unit output (always a B32 wire-v3 frame — outputs are
    /// never re-quantized, matching the in-process transport exactly).
    ResponseOk {
        /// Echo of the request id.
        req_id: u64,
        /// True when this response served a duplicate delivery from the
        /// dedup map instead of recomputing.
        deduped: bool,
        /// Output tensor as a B32 wire-v3 frame.
        frame: Vec<u8>,
    },
    /// The unit failed (panic, injected error, undecodable request).
    ResponseErr {
        /// Echo of the request id.
        req_id: u64,
        /// Human-readable failure description.
        msg: String,
    },
    /// Liveness probe (coordinator → worker).
    Heartbeat {
        /// Probe nonce, echoed in the ack.
        nonce: u64,
    },
    /// Liveness answer (worker → coordinator).
    HeartbeatAck {
        /// Echo of the probe nonce.
        nonce: u64,
    },
    /// Graceful close: the sender is draining and will not send again.
    Goodbye,
    /// Best-effort hedge cancellation (coordinator → worker): the
    /// coordinator no longer wants `req_id`'s result (a hedged sibling
    /// already won). If the work is still queued the worker drops it and
    /// answers with a `ResponseErr { msg: "cancelled" }`; if it already
    /// ran (or was never seen) the cancel is ignored.
    Cancel {
        /// Request id to abandon.
        req_id: u64,
    },
    /// Control-plane gossip (both directions): an encoded
    /// `murmuration_core::gossip::GossipMsg` — versioned membership
    /// records plus health reports. A worker receiving a push merges it
    /// and replies with its own digest (the SWIM pull half). Merging is
    /// idempotent, so duplicated or replayed gossip frames are harmless.
    Gossip {
        /// Opaque encoded gossip digest.
        payload: Vec<u8>,
    },
}

/// Why a frame could not be read or parsed.
#[derive(Debug)]
pub enum FrameError {
    /// Socket-level failure (including EOF mid-frame).
    Io(std::io::Error),
    /// The frame arrived but is not trustworthy: bad checksum, impossible
    /// length, unknown type, or truncated body. Connection-fatal.
    Corrupt(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The outer-frame checksum: FNV-1a folded four bytes per step instead of
/// one (4x fewer serially-dependent multiplies, which dominate FNV's
/// cost). Every step — word or trailing byte — is an xor followed by an
/// odd multiply, both invertible mod 2^32, so *any* single-byte change in
/// the input always changes the sum, same guarantee as classic FNV-1a.
pub fn check32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    let mut words = bytes.chunks_exact(4);
    for w in &mut words {
        h ^= u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        h = h.wrapping_mul(0x0100_0193);
    }
    for &b in words.remainder() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The checksum actually stored in a frame header: [`check32`] over the
/// covered payload prefix.
fn payload_crc(payload: &[u8]) -> u32 {
    check32(&payload[..payload.len().min(CRC_COVER)])
}

/// FNV-1a over `bytes`, 64-bit — used for result digests (CLI parity).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::Corrupt("truncated body"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

/// Starts a frame: a header placeholder the caller appends payload after.
fn begin_frame(payload_cap: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload_cap);
    out.extend_from_slice(&[0u8; HEADER_BYTES]);
    out
}

/// Patches length and checksum into a frame begun with [`begin_frame`].
fn finish_frame(mut out: Vec<u8>) -> Vec<u8> {
    let len = out.len() - HEADER_BYTES;
    let crc = payload_crc(&out[HEADER_BYTES..]);
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Builds a [`Msg::Request`] frame straight from an encoded tensor frame —
/// the body is copied once, into the final buffer, with no intermediate
/// `Msg` allocation.
pub fn encode_request(req_id: u64, unit: u32, tframe: &[u8]) -> Vec<u8> {
    let mut out = begin_frame(13 + tframe.len());
    out.push(TYPE_REQUEST);
    put_u64(&mut out, req_id);
    put_u32(&mut out, unit);
    out.extend_from_slice(tframe);
    finish_frame(out)
}

/// Builds a [`Msg::ResponseOk`] frame straight from an encoded tensor
/// frame, like [`encode_request`].
pub fn encode_response_ok(req_id: u64, deduped: bool, tframe: &[u8]) -> Vec<u8> {
    let mut out = begin_frame(10 + tframe.len());
    out.push(TYPE_RESPONSE_OK);
    put_u64(&mut out, req_id);
    out.push(u8::from(deduped));
    out.extend_from_slice(tframe);
    finish_frame(out)
}

/// An encoded frame shared by reference count, so that one copy serves the
/// worker's dedup cache and every outbox that sends it.
pub type SharedFrame = std::sync::Arc<Vec<u8>>;

/// A copy of `frame`, a [`Msg::ResponseOk`] frame as [`encode_response_ok`]
/// built it, with its `deduped` flag set and the checksum recomputed; `None`
/// for any other message, which carries no such flag. What a worker sends
/// for a resent or replayed request whose answer it has already encoded.
pub(crate) fn with_deduped(frame: &[u8]) -> Option<Vec<u8>> {
    if !is_response_ok(frame) || frame.len() < HEADER_BYTES + 10 {
        return None;
    }
    let mut out = frame.to_vec();
    out[HEADER_BYTES + 9] = 1;
    let crc = payload_crc(&out[HEADER_BYTES..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    Some(out)
}

/// Whether the encoded `frame` is a [`Msg::ResponseOk`] (by its type byte).
pub(crate) fn is_response_ok(frame: &[u8]) -> bool {
    frame.get(HEADER_BYTES) == Some(&TYPE_RESPONSE_OK)
}

/// Serializes `msg` into a complete outer frame (header + payload).
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let mut out = begin_frame(32);
    match msg {
        Msg::Hello { session, version } => {
            out.push(TYPE_HELLO);
            put_u64(&mut out, *session);
            out.push(*version);
        }
        Msg::Request { req_id, unit, frame } => return encode_request(*req_id, *unit, frame),
        Msg::ResponseOk { req_id, deduped, frame } => {
            return encode_response_ok(*req_id, *deduped, frame)
        }
        Msg::ResponseErr { req_id, msg } => {
            out.push(TYPE_RESPONSE_ERR);
            put_u64(&mut out, *req_id);
            out.extend_from_slice(msg.as_bytes());
        }
        Msg::Heartbeat { nonce } => {
            out.push(TYPE_HEARTBEAT);
            put_u64(&mut out, *nonce);
        }
        Msg::HeartbeatAck { nonce } => {
            out.push(TYPE_HEARTBEAT_ACK);
            put_u64(&mut out, *nonce);
        }
        Msg::Goodbye => out.push(TYPE_GOODBYE),
        Msg::Cancel { req_id } => {
            out.push(TYPE_CANCEL);
            put_u64(&mut out, *req_id);
        }
        Msg::Gossip { payload } => {
            let mut out = begin_frame(1 + payload.len());
            out.push(TYPE_GOSSIP);
            out.extend_from_slice(payload);
            return finish_frame(out);
        }
    }
    finish_frame(out)
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(a)
}

/// The longest fixed prefix ahead of a message body: type byte, request
/// id and unit of a [`Msg::Request`].
const PREFIX_MAX: usize = 13;

/// How many leading bytes of a `len`-byte payload of type `ty` are fixed
/// fields; the rest is the body. Tensor messages put their ids in the
/// prefix (13 bytes for a request, 10 for a response), every other
/// message only its type byte.
fn prefix_len(ty: u8, len: usize) -> usize {
    let fixed = match ty {
        TYPE_REQUEST => 13,
        TYPE_RESPONSE_OK => 10,
        _ => 1,
    };
    fixed.min(len)
}

/// Parses one payload (type byte + body) into a [`Msg`]. The reference
/// parse: a tensor body is copied out of `payload` into the message, where
/// [`FrameAssembler`] reads it into a buffer of its own and moves that.
pub fn parse_payload(mut payload: Vec<u8>) -> Result<Msg, FrameError> {
    let n = payload.first().map_or(0, |&ty| prefix_len(ty, payload.len()));
    let body = payload.split_off(n);
    parse_parts(&payload, body)
}

/// Parses a payload cut at [`prefix_len`]: `prefix` holds the type byte and
/// fixed fields, `body` the rest, which becomes the message's tensor frame
/// or gossip digest without a copy.
fn parse_parts(prefix: &[u8], body: Vec<u8>) -> Result<Msg, FrameError> {
    let Some(&ty) = prefix.first() else {
        return Err(FrameError::Corrupt("truncated body"));
    };
    match ty {
        TYPE_REQUEST => {
            if prefix.len() < 13 {
                return Err(FrameError::Corrupt("truncated body"));
            }
            let req_id = u64_at(prefix, 1);
            let unit = u32::from_le_bytes([prefix[9], prefix[10], prefix[11], prefix[12]]);
            Ok(Msg::Request { req_id, unit, frame: body })
        }
        TYPE_RESPONSE_OK => {
            if prefix.len() < 10 {
                return Err(FrameError::Corrupt("truncated body"));
            }
            let req_id = u64_at(prefix, 1);
            let deduped = prefix[9] != 0;
            Ok(Msg::ResponseOk { req_id, deduped, frame: body })
        }
        TYPE_GOSSIP => Ok(Msg::Gossip { payload: body }),
        _ => {
            let mut c = Cursor { buf: &body, pos: 0 };
            let msg = match ty {
                TYPE_HELLO => Msg::Hello { session: c.u64()?, version: c.u8()? },
                TYPE_RESPONSE_ERR => {
                    let req_id = c.u64()?;
                    let msg = String::from_utf8_lossy(c.rest()).into_owned();
                    Msg::ResponseErr { req_id, msg }
                }
                TYPE_HEARTBEAT => Msg::Heartbeat { nonce: c.u64()? },
                TYPE_HEARTBEAT_ACK => Msg::HeartbeatAck { nonce: c.u64()? },
                TYPE_GOODBYE => Msg::Goodbye,
                TYPE_CANCEL => Msg::Cancel { req_id: c.u64()? },
                _ => return Err(FrameError::Corrupt("unknown message type")),
            };
            Ok(msg)
        }
    }
}

/// Reads exactly one frame from `r`, blocking until it is complete (EOF
/// mid-frame is [`FrameError::Io`]). The whole-buffer reference decoder:
/// [`FrameAssembler`] must agree with it on every byte stream, however the
/// bytes are split.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Msg, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Corrupt("payload length exceeds cap"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if payload_crc(&payload) != crc {
        return Err(FrameError::Corrupt("checksum mismatch"));
    }
    parse_payload(payload)
}

/// A payload's fixed prefix ([`prefix_len`] bytes) and its header crc.
#[derive(Clone, Copy)]
struct Head {
    crc: u32,
    prefix: [u8; PREFIX_MAX],
    plen: usize,
}

impl Head {
    /// Prefix bytes a `len`-byte payload needs before its body: one, the
    /// type byte, until that is in, then [`prefix_len`]'s count.
    fn want(&self, len: usize) -> usize {
        match self.plen {
            0 => usize::from(len > 0),
            _ => prefix_len(self.prefix[0], len),
        }
    }

    /// Whether `crc` matches [`payload_crc`] of `prefix ++ body`: the
    /// covered bytes are gathered on the stack, never the whole payload.
    fn crc_ok(&self, body: &[u8]) -> bool {
        let mut covered = [0u8; CRC_COVER];
        covered[..self.plen].copy_from_slice(&self.prefix[..self.plen]);
        let n = (CRC_COVER - self.plen).min(body.len());
        covered[self.plen..self.plen + n].copy_from_slice(&body[..n]);
        check32(&covered[..self.plen + n]) == self.crc
    }
}

/// Where a [`FrameAssembler`] stands in the byte stream.
enum AsmState {
    /// Collecting the 8 header bytes.
    Header { got: [u8; HEADER_BYTES], fill: usize },
    /// Collecting the fixed prefix of a `len`-byte payload: its type byte
    /// first, which sets how long the prefix is.
    Prefix { len: usize, head: Head },
    /// Collecting `body.len()` body bytes straight into the message's buffer.
    Body { head: Head, body: Vec<u8>, fill: usize },
    /// Stream desynchronized; all further input is garbage.
    Corrupt(&'static str),
}

const AT_HEADER: AsmState = AsmState::Header { got: [0; HEADER_BYTES], fill: 0 };

/// Incremental frame reassembly for non-blocking sockets: feed whatever
/// bytes `read` returned — one byte at a time, a torn header, three
/// coalesced frames — and pop complete messages out.
///
/// Semantics are byte-identical to [`read_frame`] over the same stream:
/// the same checks run in the same order (length cap at header
/// completion, checksum at payload completion, then the parse), so how the
/// bytes were split can never change what a byte sequence means. The
/// payload is kept as its fixed prefix plus a body buffer that becomes the
/// message's tensor frame as is, and [`read_from`](Self::read_from) reads
/// the socket straight into that buffer. Any [`FrameError::Corrupt`] is
/// sticky: the stream can no longer be trusted to be in sync, so every
/// later call returns the same error and pushed bytes are discarded —
/// exactly the connection-fatal contract the supervisor expects.
pub struct FrameAssembler {
    state: AsmState,
    /// Completed payloads awaiting checksum + parse. The checks run in
    /// [`FrameAssembler::next_frame`] so frames queued before a corrupt
    /// tail still decode (same as a blocking reader that consumed them
    /// first).
    ready: std::collections::VecDeque<(Head, Vec<u8>)>,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        FrameAssembler::new()
    }
}

impl FrameAssembler {
    /// An assembler at a frame boundary.
    pub fn new() -> FrameAssembler {
        FrameAssembler { state: AT_HEADER, ready: std::collections::VecDeque::new() }
    }

    /// Feeds bytes in. Never fails and never panics; errors surface from
    /// [`next_frame`](Self::next_frame) in stream order.
    pub fn push(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            match &mut self.state {
                AsmState::Corrupt(_) => return,
                AsmState::Header { got, fill } => {
                    let take = (HEADER_BYTES - *fill).min(bytes.len());
                    got[*fill..*fill + take].copy_from_slice(&bytes[..take]);
                    *fill += take;
                    bytes = &bytes[take..];
                    if *fill == HEADER_BYTES {
                        let len = u32::from_le_bytes([got[0], got[1], got[2], got[3]]) as usize;
                        let crc = u32::from_le_bytes([got[4], got[5], got[6], got[7]]);
                        let head = Head { crc, prefix: [0; PREFIX_MAX], plen: 0 };
                        self.state = if len > MAX_PAYLOAD {
                            AsmState::Corrupt("payload length exceeds cap")
                        } else {
                            AsmState::Prefix { len, head }
                        };
                        self.close_prefix();
                    }
                }
                AsmState::Prefix { len, head } => {
                    let take = (head.want(*len) - head.plen).min(bytes.len());
                    head.prefix[head.plen..head.plen + take].copy_from_slice(&bytes[..take]);
                    head.plen += take;
                    bytes = &bytes[take..];
                    self.close_prefix();
                }
                AsmState::Body { body, fill, .. } => {
                    let take = (body.len() - *fill).min(bytes.len());
                    body[*fill..*fill + take].copy_from_slice(&bytes[..take]);
                    *fill += take;
                    bytes = &bytes[take..];
                    self.close_body();
                }
            }
        }
    }

    /// Moves a complete prefix on: to the body, or, for a payload with
    /// none, straight to the ready queue.
    fn close_prefix(&mut self) {
        let AsmState::Prefix { len, head } = &self.state else { return };
        let (len, head) = (*len, *head);
        if head.plen < head.want(len) {
            return;
        }
        self.state = if len == head.plen {
            self.ready.push_back((head, Vec::new()));
            AT_HEADER
        } else {
            AsmState::Body { head, body: vec![0u8; len - head.plen], fill: 0 }
        };
    }

    /// Queues a complete body and returns to the next header.
    fn close_body(&mut self) {
        if let AsmState::Body { body, fill, head } = &mut self.state {
            if *fill == body.len() {
                self.ready.push_back((*head, std::mem::take(body)));
                self.state = AT_HEADER;
            }
        }
    }

    /// Pops the next complete message, `Ok(None)` when more bytes are
    /// needed, or the stream's (sticky) corruption error.
    pub fn next_frame(&mut self) -> Result<Option<Msg>, FrameError> {
        if let Some((head, body)) = self.ready.pop_front() {
            if !head.crc_ok(&body) {
                self.state = AsmState::Corrupt("checksum mismatch");
                self.ready.clear();
                return Err(FrameError::Corrupt("checksum mismatch"));
            }
            return match parse_parts(&head.prefix[..head.plen], body) {
                Ok(msg) => Ok(Some(msg)),
                Err(FrameError::Corrupt(why)) => {
                    self.state = AsmState::Corrupt(why);
                    self.ready.clear();
                    Err(FrameError::Corrupt(why))
                }
                Err(e) => Err(e),
            };
        }
        match &self.state {
            AsmState::Corrupt(why) => Err(FrameError::Corrupt(why)),
            _ => Ok(None),
        }
    }

    /// Whether a complete message is already queued (no more bytes
    /// needed to make progress).
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Drives the assembler directly from a non-blocking reader: one
    /// `read`, pushed in. Inside a body the read lands in the body's own
    /// buffer (at most the bytes it still lacks); elsewhere it goes through
    /// `scratch`. Returns the byte count (`0` = clean EOF); `WouldBlock`
    /// surfaces to the caller.
    pub fn read_from<R: Read>(&mut self, r: &mut R, scratch: &mut [u8]) -> std::io::Result<usize> {
        if let AsmState::Body { body, fill, .. } = &mut self.state {
            let n = r.read(&mut body[*fill..])?;
            *fill += n;
            self.close_body();
            return Ok(n);
        }
        let n = r.read(scratch)?;
        self.push(&scratch[..n]);
        Ok(n)
    }

    /// Bytes currently buffered (partial frame plus parsed-but-unpopped
    /// payloads) — feeds the per-connection read-buffer cap.
    pub fn buffered(&self) -> usize {
        let partial = match &self.state {
            AsmState::Header { fill, .. } => *fill,
            AsmState::Prefix { head, .. } => head.plen,
            AsmState::Body { head, fill, .. } => head.plen + *fill,
            AsmState::Corrupt(_) => 0,
        };
        partial + self.ready.iter().map(|(h, b)| h.plen + b.len()).sum::<usize>()
    }

    /// True once the stream hit a corrupt frame (connection-fatal).
    pub fn is_corrupt(&self) -> bool {
        matches!(self.state, AsmState::Corrupt(_))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_messages() -> Vec<Msg> {
        vec![
            Msg::Hello { session: 0xDEAD_BEEF_0123, version: PROTO_VERSION },
            Msg::Request { req_id: 42, unit: 3, frame: vec![1, 2, 3, 4, 5] },
            Msg::ResponseOk { req_id: 42, deduped: true, frame: vec![9, 8, 7] },
            Msg::ResponseErr { req_id: 7, msg: "unit exploded".to_owned() },
            Msg::Heartbeat { nonce: 11 },
            Msg::HeartbeatAck { nonce: 11 },
            Msg::Goodbye,
            Msg::Cancel { req_id: 42 },
            Msg::Gossip { payload: vec![1, 0, 0, 0, 0, 0, 0, 0, 0] },
            Msg::Gossip { payload: Vec::new() },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_messages() {
            let bytes = encode_frame(&msg);
            let mut r = &bytes[..];
            let back = read_frame(&mut r).unwrap();
            assert_eq!(back, msg);
            assert!(r.is_empty(), "frame must consume itself exactly");
        }
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let msgs = all_messages();
        let mut bytes = Vec::new();
        for m in &msgs {
            bytes.extend_from_slice(&encode_frame(m));
        }
        let mut r = &bytes[..];
        for m in &msgs {
            assert_eq!(&read_frame(&mut r).unwrap(), m);
        }
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut bytes = encode_frame(&Msg::Request { req_id: 1, unit: 0, frame: vec![0; 64] });
        let mid = HEADER_BYTES + 32;
        bytes[mid] ^= 0xFF;
        let mut r = &bytes[..];
        match read_frame(&mut r) {
            Err(FrameError::Corrupt(_)) => {}
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn impossible_length_is_corrupt_not_oom() {
        let mut bytes = encode_frame(&Msg::Goodbye);
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &bytes[..];
        match read_frame(&mut r) {
            Err(FrameError::Corrupt(_)) => {}
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let bytes = encode_frame(&Msg::Heartbeat { nonce: 5 });
        let mut r = &bytes[..bytes.len() - 2];
        match read_frame(&mut r) {
            Err(FrameError::Io(_)) => {}
            other => panic!("expected io, got {other:?}"),
        }
    }

    /// Decodes `bytes` through an assembler fed at the given split points.
    fn assemble_split(bytes: &[u8], cuts: &[usize]) -> (Vec<Msg>, Option<String>) {
        let mut asm = FrameAssembler::new();
        let mut msgs = Vec::new();
        let mut err = None;
        let mut drain = |asm: &mut FrameAssembler| loop {
            match asm.next_frame() {
                Ok(Some(m)) => msgs.push(m),
                Ok(None) => break,
                Err(e) => {
                    err.get_or_insert(e.to_string());
                    break;
                }
            }
        };
        let mut prev = 0usize;
        for &cut in cuts {
            let cut = cut.min(bytes.len());
            if cut > prev {
                asm.push(&bytes[prev..cut]);
                drain(&mut asm);
                prev = cut;
            }
        }
        if prev < bytes.len() {
            asm.push(&bytes[prev..]);
        }
        drain(&mut asm);
        (msgs, err)
    }

    /// Reference decode: whole-buffer `read_frame` until exhausted.
    fn read_all(bytes: &[u8]) -> (Vec<Msg>, Option<String>) {
        let mut r = bytes;
        let mut msgs = Vec::new();
        loop {
            if r.is_empty() {
                return (msgs, None);
            }
            match read_frame(&mut r) {
                Ok(m) => msgs.push(m),
                Err(FrameError::Io(_)) => return (msgs, None), // trailing partial
                Err(e) => return (msgs, Some(e.to_string())),
            }
        }
    }

    #[test]
    fn assembler_one_byte_drip_matches_whole_buffer() {
        let msgs = all_messages();
        let mut bytes = Vec::new();
        for m in &msgs {
            bytes.extend_from_slice(&encode_frame(m));
        }
        let cuts: Vec<usize> = (1..bytes.len()).collect();
        let (got, err) = assemble_split(&bytes, &cuts);
        assert!(err.is_none(), "clean stream must not error: {err:?}");
        assert_eq!(got, msgs);
    }

    #[test]
    fn assembler_corruption_is_sticky() {
        let mut bytes = encode_frame(&Msg::Heartbeat { nonce: 1 });
        let tail = encode_frame(&Msg::Heartbeat { nonce: 2 });
        let n = bytes.len();
        bytes.extend_from_slice(&tail);
        bytes[n + HEADER_BYTES] ^= 0xFF; // corrupt the second frame's payload
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        assert_eq!(asm.next_frame().unwrap(), Some(Msg::Heartbeat { nonce: 1 }));
        assert!(asm.next_frame().is_err());
        assert!(asm.is_corrupt());
        // Sticky: more bytes don't resurrect the stream.
        asm.push(&encode_frame(&Msg::Goodbye));
        assert!(asm.next_frame().is_err());
    }

    #[test]
    fn assembler_oversize_length_is_corrupt_without_alloc() {
        let mut bytes = encode_frame(&Msg::Goodbye);
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        match asm.next_frame() {
            Err(FrameError::Corrupt(_)) => {}
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn assembler_read_from_drives_a_reader() {
        let msgs = all_messages();
        let mut bytes = Vec::new();
        for m in &msgs {
            bytes.extend_from_slice(&encode_frame(m));
        }
        let mut r = &bytes[..];
        let mut asm = FrameAssembler::new();
        let mut scratch = [0u8; 7]; // deliberately tiny, misaligned reads
        let mut got = Vec::new();
        loop {
            let n = asm.read_from(&mut r, &mut scratch).unwrap();
            while let Some(m) = asm.next_frame().unwrap() {
                got.push(m);
            }
            if n == 0 {
                break;
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(asm.buffered(), 0, "clean stream leaves nothing buffered");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite: arbitrary partial-read split points (1-byte drips,
        /// torn headers, coalesced frames) must decode byte-identically
        /// to a whole-buffer parse, and never panic — including when the
        /// stream is corrupted at a random byte.
        #[test]
        fn prop_assembler_matches_read_frame(
            seed in 0u64..10_000,
            n_msgs in 1usize..6,
            n_cuts in 0usize..24,
            corrupt_at in 0usize..2_000,
            do_corrupt in 0usize..3,
            truncate in 0usize..64,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bytes = Vec::new();
            for _ in 0..n_msgs {
                let m = match rng.gen_range(0..7u32) {
                    0 => Msg::Hello { session: rng.gen(), version: PROTO_VERSION },
                    1 => {
                        let blen = rng.gen_range(0..200usize);
                        let body: Vec<u8> = (0..blen).map(|_| rng.gen()).collect();
                        Msg::Request { req_id: rng.gen(), unit: rng.gen_range(0..9u32), frame: body }
                    }
                    2 => {
                        let blen = rng.gen_range(0..300usize);
                        let body: Vec<u8> = (0..blen).map(|_| rng.gen()).collect();
                        Msg::ResponseOk { req_id: rng.gen(), deduped: rng.gen(), frame: body }
                    }
                    3 => Msg::ResponseErr { req_id: rng.gen(), msg: "e".repeat(rng.gen_range(0..40)) },
                    4 => Msg::Heartbeat { nonce: rng.gen() },
                    5 => Msg::Cancel { req_id: rng.gen() },
                    _ => Msg::Gossip { payload: (0..rng.gen_range(0..64usize)).map(|_| rng.gen()).collect() },
                };
                bytes.extend_from_slice(&encode_frame(&m));
            }
            if do_corrupt == 0 && !bytes.is_empty() {
                let at = corrupt_at % bytes.len();
                bytes[at] ^= 0x5A;
            }
            if truncate > 0 {
                let keep = bytes.len().saturating_sub(truncate % (bytes.len() + 1));
                bytes.truncate(keep);
            }
            let mut cuts: Vec<usize> = (0..n_cuts)
                .map(|_| if bytes.is_empty() { 0 } else { rng.gen_range(0..bytes.len() + 1) })
                .collect();
            cuts.sort_unstable();

            let (want_msgs, want_err) = read_all(&bytes);
            let (got_msgs, got_err) = assemble_split(&bytes, &cuts);
            prop_assert_eq!(&got_msgs, &want_msgs);
            prop_assert_eq!(got_err.is_some(), want_err.is_some());
            if let (Some(g), Some(w)) = (&got_err, &want_err) {
                prop_assert_eq!(g, w);
            }
        }
    }
}

//! The wire frame format shared by every transport backend.
//!
//! A [`Message`] travels as one length-prefixed frame. Two frame versions
//! share the kind byte: the high bit ([`SEQ_FLAG`]) marks a *sequenced*
//! frame carrying the reliability sublayer's per-destination sequence
//! number; without it the layout is the original seq-less frame, so
//! unreliable traffic pays zero extra bytes. Bits 5–6 ([`CLASS_MASK`])
//! carry the message's [`DeliveryClass`]; the zero pattern is Lossless,
//! so frames from before delivery classes decode unchanged.
//!
//! ```text
//! v1: [len: u32 LE][src: u32 LE][dst: u32 LE][kind: u8][crc: u32 LE][payload…]
//! v2: [len: u32 LE][src: u32 LE][dst: u32 LE][kind|0x80][seq: u64 LE][crc: u32 LE][payload…]
//! ```
//!
//! `len` counts every byte after the length field itself, which is what a
//! streaming reader needs to know how much to pull off a socket. `crc` is
//! a CRC-32C over `src`, `dst`, the kind byte (version bit included), the
//! seq field when present, and the payload: a flipped bit anywhere in a
//! frame is detected at decode time, counted as a decode failure and
//! dropped — the uniform receive-side fault contract both
//! [`crate::SimTransport`] and [`crate::TcpTransport`] honour. Ranks agree
//! on the checksum through the bootstrap protocol version
//! ([`crate::BOOTSTRAP_VERSION`] 3): a rank built with another checksum
//! fails the handshake instead of dropping every frame.
//!
//! The simulated fabric moves `Message` structs directly (no copy on the
//! hot path) but charges **frame** bytes to its byte counters and routes
//! corruption through this codec, so `/network/*` statistics and fault
//! behaviour are identical across backends.

use bytes::Bytes;

use crate::crc32c;
use crate::message::{DeliveryClass, Message, MessageKind};

/// Bytes of frame overhead ahead of the payload for an **unsequenced**
/// frame: `len(4) + src(4) + dst(4) + kind(1) + crc(4)`.
pub const FRAME_HEADER_LEN: usize = 17;

/// Extra header bytes a sequenced (v2) frame carries: the `seq u64`.
pub const SEQ_OVERHEAD: usize = 8;

/// Kind-byte flag marking a sequenced (v2) frame.
pub const SEQ_FLAG: u8 = 0x80;

/// Kind-byte bits carrying the [`DeliveryClass`]: `0x00` Lossless,
/// `0x20` BestEffort, `0x40` Coalesce (`0x60` is invalid and rejected
/// as [`FrameError::BadKind`]). Zero means Lossless, so pre-class
/// frames decode under their historical contract.
pub const CLASS_MASK: u8 = 0x60;

/// Frame-body bytes ahead of the payload for an unsequenced frame
/// (everything the length prefix counts except the payload itself).
const BODY_HEADER_LEN: usize = 13;

/// Upper bound on a frame body; larger length prefixes are rejected as
/// garbage before any allocation happens.
pub const MAX_FRAME_BODY: usize = 256 * 1024 * 1024;

/// Total bytes an **unsequenced** message of `payload` payload bytes
/// occupies on the wire.
pub fn frame_len(payload: usize) -> usize {
    FRAME_HEADER_LEN + payload
}

/// Total bytes `message` occupies on the wire (accounts for the seq
/// field of sequenced frames). This is what byte counters charge.
pub fn wire_len(message: &Message) -> usize {
    frame_len(message.len())
        + if message.seq.is_some() {
            SEQ_OVERHEAD
        } else {
            0
        }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header (or the advertised body) requires.
    Truncated,
    /// The length prefix is below the minimum body size or above
    /// [`MAX_FRAME_BODY`].
    BadLength(u32),
    /// The kind byte is not a known [`MessageKind`] (version and class
    /// bits aside), or carries the invalid `0x60` class pattern.
    BadKind(u8),
    /// The checksum did not match (bit rot / injected corruption).
    Checksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadLength(l) => write!(f, "implausible frame length {l}"),
            FrameError::BadKind(k) => write!(f, "unknown message kind {k}"),
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC-32C over the checksummed region (src, dst, kind byte, optional
/// seq, payload).
fn checksum(src: u32, dst: u32, kind_byte: u8, seq: Option<u64>, payload: &[u8]) -> u32 {
    let mut head = [0u8; 9 + SEQ_OVERHEAD];
    head[0..4].copy_from_slice(&src.to_le_bytes());
    head[4..8].copy_from_slice(&dst.to_le_bytes());
    head[8] = kind_byte;
    let head_len = match seq {
        Some(seq) => {
            head[9..].copy_from_slice(&seq.to_le_bytes());
            head.len()
        }
        None => 9,
    };
    !crc32c::update(crc32c::update(!0, &head[..head_len]), payload)
}

/// Encode `message` into one self-delimiting frame (v2 when the message
/// carries a sequence number, v1 otherwise).
pub fn encode_frame(message: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(wire_len(message));
    let seq_extra = if message.seq.is_some() {
        SEQ_OVERHEAD
    } else {
        0
    };
    let body_len = (BODY_HEADER_LEN + seq_extra + message.len()) as u32;
    let kind_byte = message.kind as u8
        | message.class.bits()
        | if message.seq.is_some() { SEQ_FLAG } else { 0 };
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(&message.src.to_le_bytes());
    out.extend_from_slice(&message.dst.to_le_bytes());
    out.push(kind_byte);
    if let Some(seq) = message.seq {
        out.extend_from_slice(&seq.to_le_bytes());
    }
    let crc = checksum(
        message.src,
        message.dst,
        kind_byte,
        message.seq,
        &message.payload,
    );
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&message.payload);
    out
}

/// A decoded frame borrowing its payload from the receive buffer.
///
/// Produced by [`decode_frame_in_place`]: all header fields are parsed
/// and the checksum is verified, but the payload is a slice into the
/// caller's buffer — no allocation, no copy. The event-loop transport
/// promotes the slice to an owned [`Bytes`] view of its (refcounted)
/// receive chunk in O(1); [`FrameView::to_message`] is the copying
/// fallback for callers without a shareable buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// Source locality.
    pub src: u32,
    /// Destination locality.
    pub dst: u32,
    /// Message kind (version and class bits stripped).
    pub kind: MessageKind,
    /// Delivery class carried in the kind byte's [`CLASS_MASK`] bits.
    pub class: DeliveryClass,
    /// Reliability sequence number (v2 frames only).
    pub seq: Option<u64>,
    /// Payload bytes, borrowed from the frame body.
    pub payload: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Byte offset of the payload within the frame *body* this view was
    /// decoded from (header fields plus the seq for v2 frames).
    pub fn payload_offset(&self) -> usize {
        BODY_HEADER_LEN + if self.seq.is_some() { SEQ_OVERHEAD } else { 0 }
    }

    /// Promote to an owned [`Message`], copying the payload.
    pub fn to_message(&self) -> Message {
        self.with_payload(Bytes::copy_from_slice(self.payload))
    }

    /// Build the [`Message`] around an owned payload the caller already
    /// holds (typically a zero-copy [`Bytes::slice`] of the receive
    /// buffer covering exactly the bytes of [`FrameView::payload`]).
    pub fn with_payload(&self, payload: Bytes) -> Message {
        debug_assert_eq!(payload.as_ref(), self.payload, "payload mismatch");
        let message = Message::new(self.src, self.dst, self.kind, payload).with_class(self.class);
        match self.seq {
            Some(s) => message.with_seq(s),
            None => message,
        }
    }
}

/// Decode a frame *body* in place: parse and checksum-verify without
/// allocating, returning a [`FrameView`] that borrows the payload.
///
/// Accept/reject behaviour is identical to [`decode_frame_body`] (which
/// is implemented on top of this): same errors for truncation, unknown
/// kinds and checksum mismatches, byte for byte.
pub fn decode_frame_in_place(body: &[u8]) -> Result<FrameView<'_>, FrameError> {
    if body.len() < BODY_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let src = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
    let dst = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
    let kind_byte = body[8];
    let kind = MessageKind::try_from(kind_byte & !(SEQ_FLAG | CLASS_MASK))
        .map_err(|_| FrameError::BadKind(kind_byte))?;
    let class =
        DeliveryClass::from_bits(kind_byte & CLASS_MASK).ok_or(FrameError::BadKind(kind_byte))?;
    let mut at = 9;
    let seq = if kind_byte & SEQ_FLAG != 0 {
        if body.len() < BODY_HEADER_LEN + SEQ_OVERHEAD {
            return Err(FrameError::Truncated);
        }
        let seq = u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
        at += 8;
        Some(seq)
    } else {
        None
    };
    let crc = u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
    let payload = &body[at + 4..];
    if crc != checksum(src, dst, kind_byte, seq, payload) {
        return Err(FrameError::Checksum);
    }
    Ok(FrameView {
        src,
        dst,
        kind,
        class,
        seq,
        payload,
    })
}

/// Decode a frame *body* (everything after the 4-byte length prefix)
/// into an owned [`Message`] (the payload is copied).
///
/// Streaming readers pull the length prefix first, then hand the body
/// here; [`decode_frame`] wraps both steps for contiguous buffers.
pub fn decode_frame_body(body: &[u8]) -> Result<Message, FrameError> {
    decode_frame_in_place(body).map(|view| view.to_message())
}

/// Validate a length prefix before allocating a body buffer for it.
pub fn check_body_len(len: u32) -> Result<usize, FrameError> {
    let len = len as usize;
    if !(BODY_HEADER_LEN..=MAX_FRAME_BODY).contains(&len) {
        return Err(FrameError::BadLength(len as u32));
    }
    Ok(len)
}

/// Decode one frame from the start of `buf`, returning the message and
/// the number of bytes consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Truncated);
    }
    let body_len = check_body_len(u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")))?;
    let total = 4 + body_len;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    let message = decode_frame_body(&buf[4..total])?;
    Ok((message, total))
}

/// Flip the last byte of an encoded frame so that decoding fails its
/// checksum (fault injection). The last byte is always inside the
/// checksummed region — payload when one exists, the crc itself for
/// empty payloads — so [`decode_frame`] returns [`FrameError::Checksum`]
/// for both frame versions.
pub fn corrupt_frame(frame: &mut [u8]) {
    debug_assert!(frame.len() >= FRAME_HEADER_LEN);
    let last = frame.len() - 1;
    frame[last] ^= 0xA5;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(payload: &[u8]) -> Message {
        Message::new(
            3,
            7,
            MessageKind::Coalesced,
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = msg(b"hello frame");
        let frame = encode_frame(&m);
        assert_eq!(frame.len(), frame_len(m.len()));
        assert_eq!(frame.len(), wire_len(&m));
        let (d, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(d.src, 3);
        assert_eq!(d.dst, 7);
        assert_eq!(d.kind, MessageKind::Coalesced);
        assert_eq!(d.seq, None);
        assert_eq!(d.payload.as_ref(), b"hello frame");
    }

    #[test]
    fn sequenced_roundtrip_preserves_seq() {
        let m = msg(b"sequenced").with_seq(0xdead_beef_0042);
        let frame = encode_frame(&m);
        assert_eq!(frame.len(), wire_len(&m));
        assert_eq!(frame.len(), frame_len(m.len()) + SEQ_OVERHEAD);
        let (d, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(d.seq, Some(0xdead_beef_0042));
        assert_eq!(d.kind, MessageKind::Coalesced);
        assert_eq!(d.payload.as_ref(), b"sequenced");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let m = Message::new(0, 0, MessageKind::Control, Bytes::new());
        let (d, consumed) = decode_frame(&encode_frame(&m)).unwrap();
        assert_eq!(consumed, FRAME_HEADER_LEN);
        assert!(d.is_empty());

        let m = Message::new(0, 0, MessageKind::Ack, Bytes::new()).with_seq(0);
        let (d, consumed) = decode_frame(&encode_frame(&m)).unwrap();
        assert_eq!(consumed, FRAME_HEADER_LEN + SEQ_OVERHEAD);
        assert_eq!(d.seq, Some(0));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        for m in [msg(b"0123456789"), msg(b"0123456789").with_seq(77)] {
            let frame = encode_frame(&m);
            for cut in 0..frame.len() {
                assert!(
                    decode_frame(&frame[..cut]).is_err(),
                    "cut at {cut} must not decode"
                );
            }
        }
    }

    #[test]
    fn corruption_fails_checksum() {
        for m in [
            msg(b"payload bytes"),
            msg(b"payload bytes").with_seq(3),
            Message::new(1, 2, MessageKind::Parcel, Bytes::new()),
            Message::new(1, 2, MessageKind::Parcel, Bytes::new()).with_seq(9),
        ] {
            let mut frame = encode_frame(&m);
            corrupt_frame(&mut frame);
            assert!(matches!(decode_frame(&frame), Err(FrameError::Checksum)));
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_1kib_frame_is_rejected() {
        let payload: Vec<u8> = (0..1024 - FRAME_HEADER_LEN - SEQ_OVERHEAD)
            .map(|i| (i * 13 + 5) as u8)
            .collect();
        for m in [msg(&payload), msg(&payload).with_seq(0x0123_4567_89ab_cdef)] {
            let frame = encode_frame(&m);
            assert!(frame.len() >= 1016);
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let got = decode_frame(&bad);
                match bit / 8 {
                    // The length prefix is framing, not checksummed: a flip
                    // there reads a wrong span, which fails one way or
                    // another.
                    0..=3 => assert!(got.is_err(), "length bit {bit} decoded"),
                    // A kind-byte flip can also name an unknown kind or
                    // class, or toggle the seq flag.
                    12 => assert!(got.is_err(), "kind bit {bit} decoded"),
                    _ => assert_eq!(
                        got.map(|_| ()),
                        Err(FrameError::Checksum),
                        "bit {bit} of {}",
                        frame.len()
                    ),
                }
            }
        }
    }

    #[test]
    fn garbled_seq_fails_checksum() {
        let mut frame = encode_frame(&msg(b"x").with_seq(5));
        frame[14] ^= 0x01; // inside the seq field (bytes 13..21)
        assert!(matches!(decode_frame(&frame), Err(FrameError::Checksum)));
    }

    #[test]
    fn in_place_view_matches_owned_decode() {
        for m in [
            msg(b"zero copy"),
            msg(b"zero copy").with_seq(17),
            Message::new(1, 2, MessageKind::Parcel, Bytes::new()),
        ] {
            let frame = encode_frame(&m);
            let body = &frame[4..];
            let view = decode_frame_in_place(body).unwrap();
            assert_eq!(view.src, m.src);
            assert_eq!(view.dst, m.dst);
            assert_eq!(view.kind, m.kind);
            assert_eq!(view.seq, m.seq);
            assert_eq!(view.payload, m.payload.as_ref());
            // The reported payload offset locates the payload in the body.
            let off = view.payload_offset();
            assert_eq!(&body[off..], view.payload);
            // Owned promotion paths agree with the copying decoder.
            let owned = decode_frame_body(body).unwrap();
            assert_eq!(view.to_message(), owned);
            let shared = Bytes::copy_from_slice(view.payload);
            assert_eq!(view.with_payload(shared), owned);
        }
    }

    #[test]
    fn class_bits_roundtrip_on_the_wire() {
        for class in [
            DeliveryClass::Lossless,
            DeliveryClass::BestEffort,
            DeliveryClass::Coalesce,
        ] {
            for m in [
                msg(b"classed").with_class(class),
                msg(b"classed").with_class(class).with_seq(41),
            ] {
                let frame = encode_frame(&m);
                // The class costs zero extra wire bytes.
                assert_eq!(frame.len(), wire_len(&m));
                let (d, _) = decode_frame(&frame).unwrap();
                assert_eq!(d.class, class);
                assert_eq!(d, m);
                let view = decode_frame_in_place(&frame[4..]).unwrap();
                assert_eq!(view.class, class);
                assert_eq!(view.to_message(), m);
            }
        }
    }

    #[test]
    fn bad_kind_and_bad_length_are_rejected() {
        let mut frame = encode_frame(&msg(b"x"));
        frame[12] = 99; // kind byte: 0x63 = the invalid 0x60 class pattern
        assert!(matches!(decode_frame(&frame), Err(FrameError::BadKind(99))));

        let mut frame = encode_frame(&msg(b"x"));
        frame[12] = 0x1f; // valid class bits, unknown kind
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::BadKind(0x1f))
        ));

        let mut frame = encode_frame(&msg(b"x"));
        frame[0..4].copy_from_slice(&(MAX_FRAME_BODY as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::BadLength(_))
        ));

        // Length prefix smaller than the body header.
        let small = 3u32.to_le_bytes();
        assert!(matches!(
            decode_frame(&small),
            Err(FrameError::BadLength(3))
        ));
    }
}

//! The framed TCP data plane: frames cross real sockets using
//! `dwrs_core::framed` length-prefixed encoding over the `swor::wire`
//! payload codec — so the bytes on the wire are exactly the
//! bytes the metrics meter.
//!
//! Socket protocol (all frames are `[u32 len][payload]`, payload starts
//! with one tag byte):
//!
//! | direction | tag | payload |
//! |---|---|---|
//! | site→coord | `HELLO` | `u32` site id (first frame on a connection) |
//! | site→coord | `BATCH` | `u64` item count, then concatenated `FrameCodec` up-messages |
//! | site→coord | `EOF` | empty — the site's stream is exhausted |
//! | site→coord | `FAULT` | UTF-8 diagnostic — the site hit a local failure |
//! | coord→site | `DOWN` | exactly one `FrameCodec` down-message |
//!
//! The `BATCH` item count is the sender's stream-progress watermark for the
//! flush window (items observed, not messages sent — the protocols are
//! message-sublinear); hierarchical aggregators key their root-sync cadence
//! off it.
//!
//! Shutdown is a half-close handshake: a site half-closes its write side
//! after `EOF`; the coordinator half-closes each down link once every site
//! reported `EOF`, which terminates the sites' drain loops.
//!
//! This module holds the blocking socket pieces the other socket paths
//! share: the tag registry, the `HELLO` reader the epoll engine's accept
//! loop uses, and the site-side up sender, down reader and
//! coordinator-side down sender the daemon's data plane runs on. The
//! down reader runs on its own thread and drains eagerly, which keeps
//! the coordinator's down writes from ever blocking (the deadlock-freedom
//! invariant of [`crate::engine`]).

use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;

use dwrs_core::framed::{encode_seq, FrameCodec, FramedReader, FramedWriter};

use crate::engine::RuntimeError;
use crate::transport::{BatchSender, DownSender, TransportError, UpFrame};

pub(crate) const TAG_HELLO: u8 = 0x10;
pub(crate) const TAG_BATCH: u8 = 0x11;
pub(crate) const TAG_EOF: u8 = 0x12;
pub(crate) const TAG_FAULT: u8 = 0x13;
pub(crate) const TAG_DOWN: u8 = 0x21;

// ----------------------------------------------------------- site side

/// Conservative per-message wire-size bound used to pre-size batch frames:
/// every protocol message is O(1) machine words (the largest SWOR up frame
/// is 25 bytes), so `batch_max` messages fit this many bytes.
const MSG_SIZE_HINT: usize = 32;

/// Site-side up sender: encodes batches onto the socket. Frames are built
/// in the writer's reusable scratch (pre-sized from the engine's
/// `batch_max` via [`BatchSender::reserve_hint`]) and shipped with a
/// single `write_all` — no allocation, no copy, one syscall per flush.
struct TcpBatchSender<U> {
    writer: FramedWriter<TcpStream>,
    _marker: std::marker::PhantomData<fn(U)>,
}

/// Builds the site-side up sender over an already-connected socket
/// (shared with the daemon's attach client, whose handshake is a control
/// frame instead of `HELLO`).
pub(crate) fn tcp_batch_sender<U: FrameCodec + Send + 'static>(
    stream: TcpStream,
) -> Box<dyn BatchSender<U>> {
    Box::new(TcpBatchSender {
        writer: FramedWriter::new(stream),
        _marker: std::marker::PhantomData,
    })
}

impl<U: FrameCodec + Send> BatchSender<U> for TcpBatchSender<U> {
    fn send(&mut self, frame: UpFrame<U>) -> Result<(), TransportError> {
        match frame {
            UpFrame::Batch { mut msgs, items } => self.send_batch(&mut msgs, items),
            UpFrame::Eof => self
                .writer
                .write_frame_with(|buf| buf.push(TAG_EOF))
                .map_err(TransportError::Io),
            UpFrame::Fault(msg) => self
                .writer
                .write_frame_with(|buf| {
                    buf.push(TAG_FAULT);
                    buf.extend_from_slice(msg.as_bytes());
                })
                .map_err(TransportError::Io),
        }
    }

    fn send_batch(&mut self, batch: &mut Vec<U>, items: u64) -> Result<(), TransportError> {
        self.writer
            .write_frame_with(|buf| {
                buf.push(TAG_BATCH);
                buf.extend_from_slice(&items.to_le_bytes());
                encode_seq(batch, buf);
            })
            .map_err(TransportError::Io)?;
        // Keep the caller's allocation: the messages were serialized from
        // the borrow, nothing moved out.
        batch.clear();
        Ok(())
    }

    fn reserve_hint(&mut self, batch_max: usize) {
        self.writer
            .reserve_frame(9 + MSG_SIZE_HINT * batch_max.max(1));
    }

    fn abort(&mut self) {
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
    }

    fn close(&mut self) {
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().shutdown(Shutdown::Write);
    }
}

/// Site-side reader: decodes `DOWN` frames into the in-process channel
/// until the coordinator half-closes. Runs on its own thread so the socket
/// is always drained (downs never back up into the coordinator). On any
/// exit — including a malformed frame — the socket is fully shut down so a
/// peer blocked writing to it fails fast instead of hanging on a full
/// kernel buffer.
pub(crate) fn down_reader<D: FrameCodec>(stream: TcpStream, tx: mpsc::Sender<D>) {
    let shutdown_handle = stream.try_clone().ok();
    let mut reader = FramedReader::new(stream);
    loop {
        let stop = match reader.read_blob() {
            Ok(Some(payload)) => match payload.split_first() {
                Some((&TAG_DOWN, body)) => match D::decode(body) {
                    Ok((msg, used)) if used == body.len() => tx.send(msg).is_err(),
                    _ => true, // malformed: stop draining, the site will finish
                },
                _ => true,
            },
            Ok(None) | Err(_) => true,
        };
        if stop {
            if let Some(s) = shutdown_handle.as_ref() {
                let _ = s.shutdown(Shutdown::Both);
            }
            return;
        }
    }
}

// ---------------------------------------------------- coordinator side

/// Coordinator-side down sender for one site connection. Encodes each
/// message in the writer's reusable scratch: no allocation per send, one
/// syscall per message.
struct TcpDownSender<D> {
    writer: FramedWriter<TcpStream>,
    _marker: std::marker::PhantomData<fn(D)>,
}

/// Builds the coordinator-side down sender for one site connection
/// (shared with the daemon, which registers per-slot senders as sites
/// attach instead of accepting a fixed `k` up front).
pub(crate) fn tcp_down_sender<D: FrameCodec + Send + 'static>(
    stream: TcpStream,
) -> Box<dyn DownSender<D>> {
    Box::new(TcpDownSender {
        writer: FramedWriter::new(stream),
        _marker: std::marker::PhantomData,
    })
}

impl<D: FrameCodec + Send> DownSender<D> for TcpDownSender<D> {
    fn send(&mut self, msg: &D) -> Result<(), TransportError> {
        self.writer
            .write_frame_with(|buf| {
                buf.push(TAG_DOWN);
                msg.encode(buf);
            })
            .map_err(TransportError::Io)
    }

    fn close(&mut self) {
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().shutdown(Shutdown::Write);
    }
}

/// Reads and validates the `HELLO` frame that opens every site
/// connection — its length, its tag and a site id below `k` — and returns
/// the id. The epoll engine's accept loop calls it while the socket is
/// still in blocking mode.
pub(crate) fn read_hello(stream: &TcpStream, k: usize) -> Result<usize, RuntimeError> {
    let mut len_bytes = [0u8; 4];
    let mut take = stream;
    take.read_exact(&mut len_bytes)
        .map_err(|e| RuntimeError::Transport(format!("reading HELLO length: {e}")))?;
    let len = u32::from_le_bytes(len_bytes);
    if len != 5 {
        return Err(RuntimeError::Transport(format!(
            "HELLO frame must be 5 bytes, got {len}"
        )));
    }
    let mut payload = [0u8; 5];
    take.read_exact(&mut payload)
        .map_err(|e| RuntimeError::Transport(format!("reading HELLO payload: {e}")))?;
    if payload[0] != TAG_HELLO {
        return Err(RuntimeError::Transport(format!(
            "expected HELLO tag, got {:#x}",
            payload[0]
        )));
    }
    let site = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes")) as usize;
    if site >= k {
        return Err(RuntimeError::Transport(format!(
            "HELLO for site {site} but k = {k}"
        )));
    }
    Ok(site)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwrs_core::swor::UpMsg;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn hello_rejects_out_of_range_site() {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let hello = |site: u8| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&5u32.to_le_bytes()).unwrap();
            s.write_all(&[TAG_HELLO, site, 0, 0, 0]).unwrap();
            let (accepted, _) = listener.accept().unwrap();
            (s, read_hello(&accepted, 2))
        };
        let (_keep, ok) = hello(1);
        assert_eq!(ok.unwrap(), 1);
        let (_keep, err) = hello(7);
        let err = err.unwrap_err();
        assert!(
            matches!(err, RuntimeError::Transport(ref m) if m.contains("site 7")),
            "got {err:?}"
        );
    }

    #[test]
    fn site_sent_fault_round_trips_with_message() {
        // A Fault shipped through the site's BatchSender must reach the
        // coordinator reactor as a Fault with its diagnostic intact — not
        // be silently degraded to a clean Eof.
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            (&s).write_all(&5u32.to_le_bytes()).unwrap();
            (&s).write_all(&[TAG_HELLO, 0, 0, 0, 0]).unwrap();
            let mut up = tcp_batch_sender::<UpMsg>(s);
            up.send(UpFrame::Fault("site disk on fire".into())).unwrap();
            up.close();
        });
        let frames = crate::epoll::reactor_up_frames::<UpMsg>(&listener, 1).unwrap();
        handle.join().unwrap();
        assert!(
            matches!(frames.as_slice(), [(0, UpFrame::Fault(m))] if m == "site disk on fire"),
            "got {frames:?}"
        );
    }

    #[test]
    fn garbage_connection_surfaces_as_fault() {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Valid HELLO, then a garbage frame.
            s.write_all(&5u32.to_le_bytes()).unwrap();
            s.write_all(&[TAG_HELLO, 0, 0, 0, 0]).unwrap();
            s.write_all(&3u32.to_le_bytes()).unwrap();
            s.write_all(&[0xEE, 0xFF, 0x00]).unwrap();
        });
        let frames = crate::epoll::reactor_up_frames::<UpMsg>(&listener, 1).unwrap();
        handle.join().unwrap();
        assert!(
            frames
                .iter()
                .any(|(site, f)| *site == 0 && matches!(f, UpFrame::Fault(_))),
            "got {frames:?}"
        );
    }
}

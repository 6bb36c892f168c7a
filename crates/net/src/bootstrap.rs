//! Multi-process bootstrap: rank handshake and address-book exchange.
//!
//! A multi-process cluster runs one OS process per locality ("rank").
//! Before any parcel can flow, every rank must (a) own a listening data
//! socket and (b) know the data address of every other rank. This module
//! produces that state — a [`TcpBootstrap`] — through one of three paths:
//!
//! * [`TcpBootstrap::in_process`] — the classic all-in-one mode: bind
//!   `N` loopback listeners in this process. Expressed as a degenerate
//!   address book (every rank is local), so the single-process path is a
//!   special case of the multi-process one, not a parallel code path.
//! * [`TcpBootstrap::address_book`] — a launcher (or operator) hands
//!   every rank the full `rank → address` table up front; each rank just
//!   binds its own assigned address.
//! * [`TcpBootstrap::rendezvous`] — ranks discover each other through
//!   rank 0: every worker binds an ephemeral data listener, rank 0
//!   additionally binds the well-known rendezvous address, workers
//!   connect to it and exchange a small versioned *hello* frame
//!   (`[rank, num_localities, data-addr]`), and rank 0 answers each with
//!   the completed address book once all peers have reported in.
//!
//! ## Handshake frame layout
//!
//! Every bootstrap frame is length-prefixed and versioned:
//!
//! ```text
//! [len u16 LE] [magic u32 = 0x52505842] [version u16] [kind u8] [body …]
//! ```
//!
//! * kind 1 `HELLO`: `[rank u32][num_localities u32][addr][host 16B]`
//! * kind 2 `BOOK`:  `[num_localities u32][(addr + host 16B) × num]`
//!   (index = rank)
//! * kind 3 `ERROR`: `[code u8][msg_len u16][msg utf-8]`
//!
//! where `addr` is `[family u8 (4|6)][ip 4|16 bytes][port u16 LE]` and
//! `host` is the sender's boot-time [`HostId`] — version 2 of the
//! protocol added it so every rank learns which peers share its host
//! (the shared-memory transport keys on this; a v1 peer gets a typed
//! [`BootstrapError::BadVersion`]). Validation failures are answered
//! with an `ERROR` frame (so the losing worker gets a typed
//! [`BootstrapError`], not a bare timeout) and every error path drops
//! its listeners before returning — no leaked sockets.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Magic tag leading every bootstrap frame (`"RPXB"` big-endian).
pub const BOOTSTRAP_MAGIC: u32 = 0x5250_5842;
/// Version of the bootstrap handshake protocol (v2 added per-rank
/// [`HostId`]s to `HELLO` and `BOOK` frames; v3 marks the switch of the
/// data-frame checksum from FNV-1a to CRC-32C, so ranks from builds on
/// either side of it fail the handshake instead of dropping every frame).
pub const BOOTSTRAP_VERSION: u16 = 3;

const KIND_HELLO: u8 = 1;
const KIND_BOOK: u8 = 2;
const KIND_ERROR: u8 = 3;

/// `ERROR`-frame codes (mirrored back as typed [`BootstrapError`]s).
const CODE_MALFORMED: u8 = 1;
const CODE_DUPLICATE_RANK: u8 = 2;
const CODE_SIZE_MISMATCH: u8 = 3;
const CODE_RANK_RANGE: u8 = 4;
const CODE_VERSION: u8 = 5;
const CODE_HOST_SKEW: u8 = 6;

/// Largest bootstrap frame body we accept (a book for 2048 ranks fits
/// with room to spare).
const MAX_BOOTSTRAP_FRAME: usize = 64 * 1024;

/// A 128-bit boot-time host identity, exchanged in `HELLO`/`BOOK`
/// frames so ranks can tell which peers share their machine (and may
/// therefore talk over shared memory instead of TCP).
///
/// On Linux this is the kernel's `boot_id` UUID — identical for every
/// process on the host, regenerated on reboot (so a stale segment from
/// before a reboot can never be mistaken for a live peer's). Elsewhere,
/// or when `/proc` is unavailable, it falls back to a hash of the
/// hostname, which still distinguishes hosts but not boots.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostId([u8; 16]);

impl HostId {
    /// Wire size of a host id in v2 bootstrap frames.
    pub const LEN: usize = 16;

    /// This host's identity (computed once, cached for the process).
    pub fn local() -> HostId {
        static CACHED: OnceLock<HostId> = OnceLock::new();
        *CACHED.get_or_init(HostId::detect)
    }

    fn detect() -> HostId {
        if let Ok(s) = std::fs::read_to_string("/proc/sys/kernel/random/boot_id") {
            let uuid: String = s.trim().chars().filter(|c| *c != '-').collect();
            if let Some(id) = HostId::parse_hex(&uuid) {
                return id;
            }
        }
        // Fallback: FNV-1a of the hostname, tagged so it can never
        // collide with a (random) boot id's distribution by accident.
        let name = std::env::var("HOSTNAME")
            .or_else(|_| std::env::var("COMPUTERNAME"))
            .unwrap_or_default();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(b"rpxhost\0");
        bytes[8..].copy_from_slice(&h.to_le_bytes());
        HostId(bytes)
    }

    /// Build from raw bytes (wire decode).
    pub fn from_bytes(bytes: [u8; 16]) -> HostId {
        HostId(bytes)
    }

    /// The raw bytes (wire encode).
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Render as 32 lowercase hex digits (the launcher's address-book
    /// suffix format, `host:port@<hex>`).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            use fmt::Write as _;
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// Parse 32 hex digits (case-insensitive); `None` on any other
    /// shape.
    pub fn parse_hex(s: &str) -> Option<HostId> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let mut bytes = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            bytes[i] = u8::from_str_radix(std::str::from_utf8(chunk).ok()?, 16).ok()?;
        }
        Some(HostId(bytes))
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HostId({})", self.to_hex())
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// How a multi-process cluster discovers its peers at boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootstrapMode {
    /// Workers connect to a rendezvous address served by rank 0 and
    /// exchange hello frames for the address book.
    Rendezvous {
        /// The well-known address rank 0 listens on during boot.
        addr: SocketAddr,
        /// How long to wait for all peers before giving up.
        timeout: Duration,
    },
    /// The launcher provides the complete `rank → data address` table;
    /// each rank binds its own entry. No rendezvous round-trip.
    AddressBook {
        /// Data address of every rank, indexed by rank.
        addrs: Vec<SocketAddr>,
        /// Per-rank host identity where the launcher knows it (`None`
        /// entries fall back to the loopback-address heuristic when
        /// deciding whether two ranks share a host).
        hosts: Vec<Option<HostId>>,
    },
}

/// This process's place in a multi-process cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// This process's rank (also its locality id).
    pub rank: u32,
    /// Total number of ranks in the cluster.
    pub num_localities: u32,
    /// How peers are discovered at boot.
    pub bootstrap: BootstrapMode,
}

impl Topology {
    /// Default time budget for the boot handshake.
    pub const DEFAULT_BOOT_TIMEOUT: Duration = Duration::from_secs(10);

    /// A rendezvous topology with the default boot timeout.
    pub fn rendezvous(rank: u32, num_localities: u32, addr: SocketAddr) -> Self {
        Topology {
            rank,
            num_localities,
            bootstrap: BootstrapMode::Rendezvous {
                addr,
                timeout: Self::DEFAULT_BOOT_TIMEOUT,
            },
        }
    }

    /// An address-book topology (the launcher supplied every address,
    /// but no host identities).
    pub fn address_book(rank: u32, addrs: Vec<SocketAddr>) -> Self {
        let hosts = vec![None; addrs.len()];
        Topology {
            rank,
            num_localities: addrs.len() as u32,
            bootstrap: BootstrapMode::AddressBook { addrs, hosts },
        }
    }

    /// Read the launcher's environment contract:
    ///
    /// * `RPX_RANK`, `RPX_NUM_LOCALITIES` — this process's place;
    /// * `RPX_BOOTSTRAP` — a `host:port` rendezvous address, **or**
    /// * `RPX_ADDRESS_BOOK` — comma-separated `host:port[@hostid]` list
    ///   (index = rank; takes precedence over `RPX_BOOTSTRAP`; the
    ///   optional `@<32 hex>` suffix is the rank's [`HostId`], letting
    ///   the launcher mark which ranks share a machine);
    /// * `RPX_BOOT_TIMEOUT_MS` — optional handshake budget override.
    ///
    /// Returns `Ok(None)` when `RPX_RANK` is unset (all-in-one mode).
    ///
    /// # Errors
    /// [`BootstrapError::Malformed`] when a variable is present but
    /// unparsable, inconsistent (`rank >= num_localities`), or when
    /// neither bootstrap variable is set.
    pub fn from_env() -> Result<Option<Topology>, BootstrapError> {
        let Ok(rank) = std::env::var("RPX_RANK") else {
            return Ok(None);
        };
        let rank: u32 = rank
            .parse()
            .map_err(|_| BootstrapError::Malformed("RPX_RANK is not a u32"))?;
        let num: u32 = std::env::var("RPX_NUM_LOCALITIES")
            .map_err(|_| BootstrapError::Malformed("RPX_RANK set but RPX_NUM_LOCALITIES missing"))?
            .parse()
            .map_err(|_| BootstrapError::Malformed("RPX_NUM_LOCALITIES is not a u32"))?;
        if num == 0 {
            return Err(BootstrapError::Malformed("RPX_NUM_LOCALITIES is zero"));
        }
        if rank >= num {
            return Err(BootstrapError::RankOutOfRange {
                rank,
                num_localities: num,
            });
        }
        let timeout = match std::env::var("RPX_BOOT_TIMEOUT_MS") {
            Ok(ms) => Duration::from_millis(
                ms.parse()
                    .map_err(|_| BootstrapError::Malformed("RPX_BOOT_TIMEOUT_MS is not a u64"))?,
            ),
            Err(_) => Topology::DEFAULT_BOOT_TIMEOUT,
        };
        if let Ok(book) = std::env::var("RPX_ADDRESS_BOOK") {
            let mut addrs = Vec::new();
            let mut hosts = Vec::new();
            for entry in book.split(',') {
                let entry = entry.trim();
                let (addr, host) = match entry.rsplit_once('@') {
                    Some((addr, hex)) => {
                        let host = HostId::parse_hex(hex).ok_or(BootstrapError::Malformed(
                            "RPX_ADDRESS_BOOK has a bad host-id suffix",
                        ))?;
                        (addr, Some(host))
                    }
                    None => (entry, None),
                };
                addrs.push(addr.parse::<SocketAddr>().map_err(|_| {
                    BootstrapError::Malformed("RPX_ADDRESS_BOOK has a bad address")
                })?);
                hosts.push(host);
            }
            if addrs.len() as u32 != num {
                return Err(BootstrapError::ClusterSizeMismatch {
                    ours: num,
                    theirs: addrs.len() as u32,
                });
            }
            return Ok(Some(Topology {
                rank,
                num_localities: num,
                bootstrap: BootstrapMode::AddressBook { addrs, hosts },
            }));
        }
        let addr: SocketAddr = std::env::var("RPX_BOOTSTRAP")
            .map_err(|_| {
                BootstrapError::Malformed("neither RPX_BOOTSTRAP nor RPX_ADDRESS_BOOK set")
            })?
            .parse()
            .map_err(|_| BootstrapError::Malformed("RPX_BOOTSTRAP is not host:port"))?;
        Ok(Some(Topology {
            rank,
            num_localities: num,
            bootstrap: BootstrapMode::Rendezvous { addr, timeout },
        }))
    }
}

/// Typed failures of the boot handshake.
#[derive(Debug)]
pub enum BootstrapError {
    /// Socket-level failure (bind, connect, read, write).
    Io(io::Error),
    /// A frame or environment variable failed to parse.
    Malformed(&'static str),
    /// A peer led with the wrong magic tag — not an rpx bootstrap peer.
    BadMagic(u32),
    /// A peer speaks an incompatible handshake version.
    BadVersion(u16),
    /// Two workers claimed the same rank.
    DuplicateRank(u32),
    /// A peer was launched with a different `num_localities`.
    ClusterSizeMismatch {
        /// Our `num_localities`.
        ours: u32,
        /// The peer's (or book's) `num_localities`.
        theirs: u32,
    },
    /// A rank outside `0..num_localities`.
    RankOutOfRange {
        /// The offending rank.
        rank: u32,
        /// The cluster size it must be below.
        num_localities: u32,
    },
    /// The book's host identity for our own rank disagrees with what
    /// this process measured at boot — the launcher's placement view
    /// has drifted from reality (e.g. a stale book reused after a
    /// reboot or a migration), so same-host negotiation cannot be
    /// trusted.
    HostIdentitySkew {
        /// Our rank, whose book entry is wrong.
        rank: u32,
        /// The identity this process measured.
        ours: HostId,
        /// The identity the book claims for us.
        theirs: HostId,
    },
    /// The handshake did not complete within its time budget.
    Timeout {
        /// How long we waited.
        waited: Duration,
        /// How many peers had not reported in.
        missing: u32,
    },
    /// Rank 0 rejected our hello with an `ERROR` frame.
    Rejected {
        /// The error code from the frame.
        code: u8,
        /// The human-readable message from the frame.
        message: String,
    },
}

impl fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootstrapError::Io(e) => write!(f, "bootstrap i/o error: {e}"),
            BootstrapError::Malformed(what) => write!(f, "malformed bootstrap input: {what}"),
            BootstrapError::BadMagic(m) => {
                write!(f, "bad bootstrap magic {m:#010x} (not an rpx peer)")
            }
            BootstrapError::BadVersion(v) => write!(
                f,
                "bootstrap protocol version {v} (we speak {BOOTSTRAP_VERSION})"
            ),
            BootstrapError::DuplicateRank(r) => write!(f, "two workers claimed rank {r}"),
            BootstrapError::ClusterSizeMismatch { ours, theirs } => write!(
                f,
                "cluster size mismatch: we were launched with {ours} localities, peer says {theirs}"
            ),
            BootstrapError::RankOutOfRange {
                rank,
                num_localities,
            } => write!(
                f,
                "rank {rank} out of range for {num_localities} localities"
            ),
            BootstrapError::HostIdentitySkew { rank, ours, theirs } => write!(
                f,
                "host identity skew for rank {rank}: measured {ours}, book says {theirs}"
            ),
            BootstrapError::Timeout { waited, missing } => write!(
                f,
                "bootstrap timed out after {waited:?} with {missing} peer(s) missing"
            ),
            BootstrapError::Rejected { code, message } => {
                write!(f, "rendezvous rejected our hello (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for BootstrapError {}

impl From<io::Error> for BootstrapError {
    fn from(e: io::Error) -> Self {
        BootstrapError::Io(e)
    }
}

impl BootstrapError {
    /// The `ERROR`-frame code this error is reported as on the wire.
    fn wire_code(&self) -> u8 {
        match self {
            BootstrapError::Malformed(_) | BootstrapError::BadMagic(_) => CODE_MALFORMED,
            BootstrapError::BadVersion(_) => CODE_VERSION,
            BootstrapError::DuplicateRank(_) => CODE_DUPLICATE_RANK,
            BootstrapError::ClusterSizeMismatch { .. } => CODE_SIZE_MISMATCH,
            BootstrapError::RankOutOfRange { .. } => CODE_RANK_RANGE,
            BootstrapError::HostIdentitySkew { .. } => CODE_HOST_SKEW,
            _ => CODE_MALFORMED,
        }
    }

    /// Reconstruct the typed error a worker should surface for an
    /// `ERROR` frame received from the rendezvous.
    fn from_wire(code: u8, message: String) -> Self {
        BootstrapError::Rejected { code, message }
    }
}

/// The completed bootstrap: every rank's data address, plus the bound
/// listeners for the ranks *this process* hosts.
///
/// Consumed by `TcpTransport::from_bootstrap`, which registers the local
/// listeners with its pump pool and lazily connects outbound using the
/// address book.
#[derive(Debug)]
pub struct TcpBootstrap {
    /// `(rank, bound data listener)` for every locally hosted rank.
    pub(crate) local: Vec<(u32, TcpListener)>,
    /// Data address of every rank, indexed by rank.
    pub(crate) addrs: Vec<SocketAddr>,
    /// Host identity of every rank where known, indexed by rank.
    pub(crate) host_ids: Vec<Option<HostId>>,
}

impl TcpBootstrap {
    /// All-in-one mode: host every rank in this process, each on its own
    /// ephemeral loopback listener. This is the degenerate address book
    /// where all entries are local.
    pub fn in_process(localities: u32) -> io::Result<Self> {
        assert!(localities > 0, "a cluster needs at least one locality");
        let mut local = Vec::with_capacity(localities as usize);
        let mut addrs = Vec::with_capacity(localities as usize);
        for rank in 0..localities {
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
            listener.set_nonblocking(true)?;
            addrs.push(listener.local_addr()?);
            local.push((rank, listener));
        }
        let host_ids = vec![Some(HostId::local()); localities as usize];
        Ok(TcpBootstrap {
            local,
            addrs,
            host_ids,
        })
    }

    /// Launcher-provided address book: bind this rank's assigned entry.
    ///
    /// # Errors
    /// [`BootstrapError::RankOutOfRange`] if `rank` has no book entry;
    /// [`BootstrapError::Io`] if the assigned address cannot be bound.
    pub fn address_book(rank: u32, addrs: Vec<SocketAddr>) -> Result<Self, BootstrapError> {
        let hosts = vec![None; addrs.len()];
        TcpBootstrap::address_book_with_hosts(rank, addrs, hosts)
    }

    /// [`TcpBootstrap::address_book`] with the launcher's per-rank host
    /// identities (entries may be `None` when unknown).
    ///
    /// # Errors
    /// As `address_book`, plus [`BootstrapError::HostIdentitySkew`] if
    /// the book claims a host identity for *our* rank that differs from
    /// what this process measures — a launcher whose placement view has
    /// drifted must not let us negotiate shared memory.
    pub fn address_book_with_hosts(
        rank: u32,
        addrs: Vec<SocketAddr>,
        hosts: Vec<Option<HostId>>,
    ) -> Result<Self, BootstrapError> {
        if rank as usize >= addrs.len() {
            return Err(BootstrapError::RankOutOfRange {
                rank,
                num_localities: addrs.len() as u32,
            });
        }
        assert_eq!(addrs.len(), hosts.len(), "book and host table disagree");
        let mut host_ids = hosts;
        match host_ids[rank as usize] {
            Some(claimed) if claimed != HostId::local() => {
                return Err(BootstrapError::HostIdentitySkew {
                    rank,
                    ours: HostId::local(),
                    theirs: claimed,
                });
            }
            _ => host_ids[rank as usize] = Some(HostId::local()),
        }
        let listener = TcpListener::bind(addrs[rank as usize])?;
        listener.set_nonblocking(true)?;
        let mut addrs = addrs;
        // The book may carry port 0 for "any"; record what we really got.
        addrs[rank as usize] = listener.local_addr()?;
        Ok(TcpBootstrap {
            local: vec![(rank, listener)],
            addrs,
            host_ids,
        })
    }

    /// Rendezvous handshake through rank 0 (see module docs).
    ///
    /// Every rank binds an ephemeral data listener first; rank 0 then
    /// serves the rendezvous address, collecting one hello per peer and
    /// answering each with the completed book. All listeners are dropped
    /// on every error path.
    pub fn rendezvous(
        rank: u32,
        num_localities: u32,
        rendezvous: SocketAddr,
        timeout: Duration,
    ) -> Result<Self, BootstrapError> {
        if num_localities == 0 {
            return Err(BootstrapError::Malformed("num_localities is zero"));
        }
        if rank >= num_localities {
            return Err(BootstrapError::RankOutOfRange {
                rank,
                num_localities,
            });
        }
        let data = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        data.set_nonblocking(true)?;
        let my_addr = data.local_addr()?;
        let deadline = Instant::now() + timeout;
        let book = if rank == 0 {
            serve_rendezvous(my_addr, num_localities, rendezvous, deadline)?
        } else {
            join_rendezvous(rank, num_localities, my_addr, rendezvous, deadline)?
        };
        let (addrs, hosts): (Vec<SocketAddr>, Vec<HostId>) = book.into_iter().unzip();
        Ok(TcpBootstrap {
            local: vec![(rank, data)],
            addrs,
            host_ids: hosts.into_iter().map(Some).collect(),
        })
    }

    /// Number of ranks in the cluster.
    pub fn num_localities(&self) -> u32 {
        self.addrs.len() as u32
    }

    /// The data address of every rank, indexed by rank.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The host identity of every rank where known, indexed by rank.
    pub fn host_ids(&self) -> &[Option<HostId>] {
        &self.host_ids
    }

    /// Whether ranks `a` and `b` are known to share a machine: their
    /// exchanged host identities match, or — when either identity is
    /// unknown — both data addresses are loopback (a remote peer cannot
    /// be reached at a loopback address, so the heuristic never claims
    /// same-host across machines).
    pub fn same_host(&self, a: u32, b: u32) -> bool {
        let (a, b) = (a as usize, b as usize);
        match (self.host_ids.get(a), self.host_ids.get(b)) {
            (Some(Some(ha)), Some(Some(hb))) => ha == hb,
            _ => {
                self.addrs.get(a).is_some_and(|x| x.ip().is_loopback())
                    && self.addrs.get(b).is_some_and(|x| x.ip().is_loopback())
            }
        }
    }

    /// The ranks hosted by this process.
    pub fn hosted(&self) -> Vec<u32> {
        self.local.iter().map(|(r, _)| *r).collect()
    }
}

/// Rank 0's side: accept `num - 1` hellos on the rendezvous listener,
/// validate each, then send everyone the completed book.
fn serve_rendezvous(
    my_addr: SocketAddr,
    num: u32,
    rendezvous: SocketAddr,
    deadline: Instant,
) -> Result<Vec<(SocketAddr, HostId)>, BootstrapError> {
    let start = Instant::now();
    let listener = TcpListener::bind(rendezvous)?;
    listener.set_nonblocking(true)?;
    let mut peers: Vec<Option<(SocketAddr, HostId, TcpStream)>> = (0..num).map(|_| None).collect();
    let mut connected = 0u32;
    while connected + 1 < num {
        let now = Instant::now();
        if now >= deadline {
            return Err(BootstrapError::Timeout {
                waited: now - start,
                missing: num - 1 - connected,
            });
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                match read_hello(&mut stream, deadline) {
                    Ok((peer_rank, peer_num, peer_addr, peer_host)) => {
                        let err = if peer_num != num {
                            Some(BootstrapError::ClusterSizeMismatch {
                                ours: num,
                                theirs: peer_num,
                            })
                        } else if peer_rank == 0 || peer_rank >= num {
                            Some(BootstrapError::RankOutOfRange {
                                rank: peer_rank,
                                num_localities: num,
                            })
                        } else if peers[peer_rank as usize].is_some() {
                            Some(BootstrapError::DuplicateRank(peer_rank))
                        } else {
                            None
                        };
                        if let Some(err) = err {
                            reject_all(&mut peers, &mut stream, &err);
                            return Err(err);
                        }
                        peers[peer_rank as usize] = Some((peer_addr, peer_host, stream));
                        connected += 1;
                    }
                    Err(err) => {
                        // A malformed hello poisons the whole boot: the
                        // cluster cannot form without this peer's rank.
                        reject_all(&mut peers, &mut stream, &err);
                        return Err(err);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e.into()),
        }
    }
    let mut entries: Vec<(SocketAddr, HostId)> = Vec::with_capacity(num as usize);
    entries.push((my_addr, HostId::local()));
    for slot in peers.iter().skip(1) {
        let (addr, host, _) = slot.as_ref().expect("all peers connected");
        entries.push((*addr, *host));
    }
    let book = encode_book(&entries);
    for slot in peers.iter_mut().skip(1) {
        let (_, _, stream) = slot.as_mut().expect("all peers connected");
        stream.set_nonblocking(false).map_err(BootstrapError::Io)?;
        stream.write_all(&book)?;
        stream.flush()?;
    }
    Ok(entries)
}

/// A worker's side: connect to the rendezvous (retrying while rank 0
/// boots), send our hello, and wait for the book (or a typed rejection).
fn join_rendezvous(
    rank: u32,
    num: u32,
    my_addr: SocketAddr,
    rendezvous: SocketAddr,
    deadline: Instant,
) -> Result<Vec<(SocketAddr, HostId)>, BootstrapError> {
    let start = Instant::now();
    let mut stream = loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(BootstrapError::Timeout {
                waited: now - start,
                missing: 1,
            });
        }
        let budget = deadline - now;
        match TcpStream::connect_timeout(&rendezvous, budget.min(Duration::from_millis(250))) {
            Ok(s) => break s,
            // Rank 0 may not have bound the rendezvous yet.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    stream.write_all(&encode_hello(rank, num, my_addr, HostId::local()))?;
    stream.flush()?;
    let frame = read_frame(&mut stream, deadline).map_err(|e| match e {
        // Rank 0 closing without a book (its own boot failed) surfaces
        // as a short read; report it as a timeout-class boot failure.
        BootstrapError::Io(ioe) if ioe.kind() == io::ErrorKind::UnexpectedEof => {
            BootstrapError::Malformed("rendezvous closed before sending the address book")
        }
        other => other,
    })?;
    match frame {
        Frame::Book(entries) => {
            if entries.len() as u32 != num {
                return Err(BootstrapError::ClusterSizeMismatch {
                    ours: num,
                    theirs: entries.len() as u32,
                });
            }
            let (addr, host) = entries[rank as usize];
            if addr != my_addr {
                return Err(BootstrapError::Malformed(
                    "address book disagrees about our own address",
                ));
            }
            if host != HostId::local() {
                return Err(BootstrapError::HostIdentitySkew {
                    rank,
                    ours: HostId::local(),
                    theirs: host,
                });
            }
            Ok(entries)
        }
        Frame::Error { code, message } => Err(BootstrapError::from_wire(code, message)),
        Frame::Hello { .. } => Err(BootstrapError::Malformed(
            "rendezvous answered with a hello frame",
        )),
    }
}

/// Send `err` as an `ERROR` frame to the offending stream and every
/// already-connected peer, so no worker is left waiting for a book that
/// will never come. Best-effort: a dead peer cannot make this worse.
fn reject_all(
    peers: &mut [Option<(SocketAddr, HostId, TcpStream)>],
    offender: &mut TcpStream,
    err: &BootstrapError,
) {
    let frame = encode_error(err.wire_code(), &err.to_string());
    let _ = offender.set_nonblocking(false);
    let _ = offender.write_all(&frame);
    let _ = offender.flush();
    for slot in peers.iter_mut() {
        if let Some((_, _, stream)) = slot.as_mut() {
            let _ = stream.set_nonblocking(false);
            let _ = stream.write_all(&frame);
            let _ = stream.flush();
        }
    }
}

/// A decoded bootstrap frame.
enum Frame {
    Hello {
        rank: u32,
        num: u32,
        addr: SocketAddr,
        host: HostId,
    },
    Book(Vec<(SocketAddr, HostId)>),
    Error {
        code: u8,
        message: String,
    },
}

fn push_addr(out: &mut Vec<u8>, addr: SocketAddr) {
    match addr.ip() {
        IpAddr::V4(ip) => {
            out.push(4);
            out.extend_from_slice(&ip.octets());
        }
        IpAddr::V6(ip) => {
            out.push(6);
            out.extend_from_slice(&ip.octets());
        }
    }
    out.extend_from_slice(&addr.port().to_le_bytes());
}

fn parse_addr(body: &[u8], at: &mut usize) -> Result<SocketAddr, BootstrapError> {
    fn malformed() -> BootstrapError {
        BootstrapError::Malformed("truncated address in bootstrap frame")
    }
    let family = *body.get(*at).ok_or_else(malformed)?;
    *at += 1;
    let ip: IpAddr = match family {
        4 => {
            let bytes: [u8; 4] = body
                .get(*at..*at + 4)
                .ok_or_else(malformed)?
                .try_into()
                .unwrap();
            *at += 4;
            IpAddr::V4(Ipv4Addr::from(bytes))
        }
        6 => {
            let bytes: [u8; 16] = body
                .get(*at..*at + 16)
                .ok_or_else(malformed)?
                .try_into()
                .unwrap();
            *at += 16;
            IpAddr::V6(Ipv6Addr::from(bytes))
        }
        _ => return Err(BootstrapError::Malformed("unknown address family")),
    };
    let port_bytes: [u8; 2] = body
        .get(*at..*at + 2)
        .ok_or_else(malformed)?
        .try_into()
        .unwrap();
    *at += 2;
    Ok(SocketAddr::new(ip, u16::from_le_bytes(port_bytes)))
}

fn frame_header(kind: u8, body_len: usize) -> Vec<u8> {
    let len = (4 + 2 + 1 + body_len) as u16;
    let mut out = Vec::with_capacity(2 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&BOOTSTRAP_MAGIC.to_le_bytes());
    out.extend_from_slice(&BOOTSTRAP_VERSION.to_le_bytes());
    out.push(kind);
    out
}

fn encode_hello(rank: u32, num: u32, addr: SocketAddr, host: HostId) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + 19 + HostId::LEN);
    body.extend_from_slice(&rank.to_le_bytes());
    body.extend_from_slice(&num.to_le_bytes());
    push_addr(&mut body, addr);
    body.extend_from_slice(host.as_bytes());
    let mut out = frame_header(KIND_HELLO, body.len());
    out.extend_from_slice(&body);
    out
}

fn encode_book(entries: &[(SocketAddr, HostId)]) -> Vec<u8> {
    let mut body = Vec::with_capacity(4 + entries.len() * (19 + HostId::LEN));
    body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (addr, host) in entries {
        push_addr(&mut body, *addr);
        body.extend_from_slice(host.as_bytes());
    }
    let mut out = frame_header(KIND_BOOK, body.len());
    out.extend_from_slice(&body);
    out
}

fn parse_host(body: &[u8], at: &mut usize) -> Result<HostId, BootstrapError> {
    let bytes: [u8; 16] = body
        .get(*at..*at + HostId::LEN)
        .ok_or(BootstrapError::Malformed(
            "truncated host id in bootstrap frame",
        ))?
        .try_into()
        .unwrap();
    *at += HostId::LEN;
    Ok(HostId::from_bytes(bytes))
}

fn encode_error(code: u8, message: &str) -> Vec<u8> {
    let msg = message.as_bytes();
    let msg = &msg[..msg.len().min(512)];
    let mut body = Vec::with_capacity(3 + msg.len());
    body.push(code);
    body.extend_from_slice(&(msg.len() as u16).to_le_bytes());
    body.extend_from_slice(msg);
    let mut out = frame_header(KIND_ERROR, body.len());
    out.extend_from_slice(&body);
    out
}

/// Read exactly `buf.len()` bytes before `deadline` from a stream whose
/// read timeout we keep clamped to the remaining budget.
fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<(), BootstrapError> {
    let start = Instant::now();
    let mut at = 0;
    stream.set_nonblocking(false)?;
    while at < buf.len() {
        let now = Instant::now();
        if now >= deadline {
            return Err(BootstrapError::Timeout {
                waited: now - start,
                missing: 1,
            });
        }
        stream.set_read_timeout(Some((deadline - now).min(Duration::from_millis(250))))?;
        match stream.read(&mut buf[at..]) {
            Ok(0) => {
                return Err(BootstrapError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "bootstrap peer closed mid-frame",
                )))
            }
            Ok(n) => at += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Read and decode one bootstrap frame.
fn read_frame(stream: &mut TcpStream, deadline: Instant) -> Result<Frame, BootstrapError> {
    let mut len_bytes = [0u8; 2];
    read_exact_deadline(stream, &mut len_bytes, deadline)?;
    let len = u16::from_le_bytes(len_bytes) as usize;
    if !(7..=MAX_BOOTSTRAP_FRAME).contains(&len) {
        return Err(BootstrapError::Malformed("bootstrap frame length"));
    }
    let mut frame = vec![0u8; len];
    read_exact_deadline(stream, &mut frame, deadline)?;
    let magic = u32::from_le_bytes(frame[0..4].try_into().unwrap());
    if magic != BOOTSTRAP_MAGIC {
        return Err(BootstrapError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(frame[4..6].try_into().unwrap());
    if version != BOOTSTRAP_VERSION {
        return Err(BootstrapError::BadVersion(version));
    }
    let kind = frame[6];
    let body = &frame[7..];
    match kind {
        KIND_HELLO => {
            if body.len() < 8 {
                return Err(BootstrapError::Malformed("short hello frame"));
            }
            let rank = u32::from_le_bytes(body[0..4].try_into().unwrap());
            let num = u32::from_le_bytes(body[4..8].try_into().unwrap());
            let mut at = 8;
            let addr = parse_addr(body, &mut at)?;
            let host = parse_host(body, &mut at)?;
            Ok(Frame::Hello {
                rank,
                num,
                addr,
                host,
            })
        }
        KIND_BOOK => {
            if body.len() < 4 {
                return Err(BootstrapError::Malformed("short book frame"));
            }
            let num = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
            // Minimum entry: 1 family + 4 ip + 2 port + 16 host id.
            if num > MAX_BOOTSTRAP_FRAME / (7 + HostId::LEN) {
                return Err(BootstrapError::Malformed("book frame count"));
            }
            let mut at = 4;
            let mut entries = Vec::with_capacity(num);
            for _ in 0..num {
                let addr = parse_addr(body, &mut at)?;
                let host = parse_host(body, &mut at)?;
                entries.push((addr, host));
            }
            Ok(Frame::Book(entries))
        }
        KIND_ERROR => {
            if body.len() < 3 {
                return Err(BootstrapError::Malformed("short error frame"));
            }
            let code = body[0];
            let msg_len = u16::from_le_bytes(body[1..3].try_into().unwrap()) as usize;
            let message = body
                .get(3..3 + msg_len)
                .map(|m| String::from_utf8_lossy(m).into_owned())
                .unwrap_or_default();
            Ok(Frame::Error { code, message })
        }
        _ => Err(BootstrapError::Malformed("unknown bootstrap frame kind")),
    }
}

/// Read a hello (and only a hello) from a freshly accepted stream.
fn read_hello(
    stream: &mut TcpStream,
    deadline: Instant,
) -> Result<(u32, u32, SocketAddr, HostId), BootstrapError> {
    match read_frame(stream, deadline)? {
        Frame::Hello {
            rank,
            num,
            addr,
            host,
        } => Ok((rank, num, addr, host)),
        _ => Err(BootstrapError::Malformed("expected a hello frame")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn free_addr() -> SocketAddr {
        // Bind-then-drop: the port stays free long enough for the test.
        TcpListener::bind((Ipv4Addr::LOCALHOST, 0))
            .unwrap()
            .local_addr()
            .unwrap()
    }

    #[test]
    fn in_process_binds_every_rank_locally() {
        let boot = TcpBootstrap::in_process(3).unwrap();
        assert_eq!(boot.num_localities(), 3);
        assert_eq!(boot.hosted(), vec![0, 1, 2]);
        assert_eq!(boot.addrs().len(), 3);
        for ((rank, listener), addr) in boot.local.iter().zip(boot.addrs()) {
            assert_eq!(listener.local_addr().unwrap(), *addr, "rank {rank}");
        }
    }

    #[test]
    fn address_book_binds_only_our_rank() {
        let a0 = free_addr();
        let a1 = free_addr();
        let boot = TcpBootstrap::address_book(1, vec![a0, a1]).unwrap();
        assert_eq!(boot.hosted(), vec![1]);
        assert_eq!(boot.addrs()[1], a1);
    }

    #[test]
    fn address_book_rejects_out_of_range_rank() {
        let err = TcpBootstrap::address_book(5, vec![free_addr()]).unwrap_err();
        assert!(matches!(
            err,
            BootstrapError::RankOutOfRange {
                rank: 5,
                num_localities: 1
            }
        ));
    }

    #[test]
    fn rendezvous_exchanges_a_consistent_book() {
        let rdv = free_addr();
        let n = 4u32;
        let mut handles = Vec::new();
        for rank in 0..n {
            handles.push(thread::spawn(move || {
                TcpBootstrap::rendezvous(rank, n, rdv, Duration::from_secs(5))
            }));
        }
        let boots: Vec<TcpBootstrap> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        let book = boots[0].addrs().to_vec();
        for boot in &boots {
            assert_eq!(boot.addrs(), &book[..], "all ranks see the same book");
            assert_eq!(boot.local.len(), 1);
            let (rank, listener) = &boot.local[0];
            assert_eq!(listener.local_addr().unwrap(), book[*rank as usize]);
            // v2: every rank learned every peer's host identity, and
            // (being one machine here) they all match ours.
            assert_eq!(boot.host_ids().len(), n as usize);
            for host in boot.host_ids() {
                assert_eq!(*host, Some(HostId::local()));
            }
            assert!(boot.same_host(0, n - 1));
        }
    }

    #[test]
    fn duplicate_rank_is_a_typed_error_on_both_sides() {
        let rdv = free_addr();
        let n = 3u32;
        let rank0 =
            thread::spawn(move || TcpBootstrap::rendezvous(0, n, rdv, Duration::from_secs(5)));
        let w1 = thread::spawn(move || TcpBootstrap::rendezvous(1, n, rdv, Duration::from_secs(5)));
        // Give worker 1 a head start so the duplicate arrives second.
        thread::sleep(Duration::from_millis(150));
        let dup = TcpBootstrap::rendezvous(1, n, rdv, Duration::from_secs(5));
        let r0 = rank0.join().unwrap();
        let r1 = w1.join().unwrap();
        // Rank 0 saw the duplicate and failed its boot...
        assert!(matches!(r0.unwrap_err(), BootstrapError::DuplicateRank(1)));
        // ...and at least one of the two rank-1 claimants was rejected
        // over the wire rather than left hanging.
        let rejected = [&r1, &dup]
            .iter()
            .filter(|r| matches!(r.as_ref().unwrap_err(), BootstrapError::Rejected { code, .. } if *code == CODE_DUPLICATE_RANK))
            .count();
        assert!(rejected >= 1, "duplicate claimants got typed rejections");
        assert!(r1.is_err() && dup.is_err());
    }

    #[test]
    fn cluster_size_mismatch_is_a_typed_error() {
        let rdv = free_addr();
        let rank0 =
            thread::spawn(move || TcpBootstrap::rendezvous(0, 2, rdv, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(50));
        let worker = TcpBootstrap::rendezvous(1, 3, rdv, Duration::from_secs(5));
        let r0 = rank0.join().unwrap();
        assert!(matches!(
            r0.unwrap_err(),
            BootstrapError::ClusterSizeMismatch { ours: 2, theirs: 3 }
        ));
        assert!(matches!(
            worker.unwrap_err(),
            BootstrapError::Rejected { code, .. } if code == CODE_SIZE_MISMATCH
        ));
    }

    #[test]
    fn malformed_hello_is_rejected_without_panicking() {
        let rdv = free_addr();
        let rank0 =
            thread::spawn(move || TcpBootstrap::rendezvous(0, 2, rdv, Duration::from_secs(5)));
        // Connect and send garbage that parses as a plausible frame
        // length but fails the magic check.
        thread::sleep(Duration::from_millis(50));
        let mut s = loop {
            match TcpStream::connect(rdv) {
                Ok(s) => break s,
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        };
        s.write_all(&[16, 0]).unwrap(); // len = 16
        s.write_all(&[0xde; 16]).unwrap(); // wrong magic
        let r0 = rank0.join().unwrap();
        assert!(matches!(r0.unwrap_err(), BootstrapError::BadMagic(_)));
        // The rejection came back as an ERROR frame, not a hang.
        let mut reply = Vec::new();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let _ = s.read_to_end(&mut reply);
        assert!(reply.len() >= 2, "got an error frame back");
    }

    #[test]
    fn rendezvous_timeout_is_typed_and_leaks_no_listener() {
        let rdv = free_addr();
        // Rank 0 waits for a peer that never comes.
        let err = TcpBootstrap::rendezvous(0, 2, rdv, Duration::from_millis(200)).unwrap_err();
        assert!(matches!(err, BootstrapError::Timeout { missing: 1, .. }));
        // The rendezvous listener was dropped: we can re-bind it.
        TcpListener::bind(rdv).expect("rendezvous port released");
        // A worker connecting to a rendezvous that never answers also
        // times out (typed), once nothing is listening.
        let err = TcpBootstrap::rendezvous(1, 2, rdv, Duration::from_millis(200)).unwrap_err();
        assert!(matches!(err, BootstrapError::Timeout { .. }));
    }

    #[test]
    fn wrong_version_is_a_typed_error() {
        let rdv = free_addr();
        let rank0 =
            thread::spawn(move || TcpBootstrap::rendezvous(0, 2, rdv, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(50));
        let mut s = loop {
            match TcpStream::connect(rdv) {
                Ok(s) => break s,
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        };
        // A hello from the future: right magic, version 99. The buffer
        // starts with the 2-byte length prefix, so version sits at 6..8.
        let mut frame = frame_header(KIND_HELLO, 8 + 7 + HostId::LEN);
        frame[6..8].copy_from_slice(&99u16.to_le_bytes());
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&2u32.to_le_bytes());
        push_addr(&mut frame, free_addr());
        frame.extend_from_slice(HostId::local().as_bytes());
        s.write_all(&frame).unwrap();
        let r0 = rank0.join().unwrap();
        assert!(matches!(r0.unwrap_err(), BootstrapError::BadVersion(99)));
    }

    #[test]
    fn topology_from_env_is_none_without_rank() {
        // Env-var tests share a process; only assert the unset path,
        // which no other test mutates.
        std::env::remove_var("RPX_RANK");
        assert!(Topology::from_env().unwrap().is_none());
    }

    #[test]
    fn frame_roundtrip_hello_book_error() {
        let addr: SocketAddr = "127.0.0.1:9099".parse().unwrap();
        let other = HostId::parse_hex("00112233445566778899aabbccddeeff").unwrap();
        let hello = encode_hello(3, 8, addr, HostId::local());
        let (mut a, mut b) = socket_pair();
        a.write_all(&hello).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        match read_frame(&mut b, deadline).unwrap() {
            Frame::Hello {
                rank,
                num,
                addr: got,
                host,
            } => {
                assert_eq!((rank, num, got), (3, 8, addr));
                assert_eq!(host, HostId::local());
            }
            _ => panic!("expected hello"),
        }
        let entries = vec![
            (addr, HostId::local()),
            ("[::1]:8080".parse().unwrap(), other),
        ];
        a.write_all(&encode_book(&entries)).unwrap();
        match read_frame(&mut b, deadline).unwrap() {
            Frame::Book(got) => assert_eq!(got, entries),
            _ => panic!("expected book"),
        }
        a.write_all(&encode_error(CODE_DUPLICATE_RANK, "rank 3 twice"))
            .unwrap();
        match read_frame(&mut b, deadline).unwrap() {
            Frame::Error { code, message } => {
                assert_eq!(code, CODE_DUPLICATE_RANK);
                assert_eq!(message, "rank 3 twice");
            }
            _ => panic!("expected error"),
        }
    }

    #[test]
    fn host_id_hex_roundtrip_and_stability() {
        let local = HostId::local();
        assert_eq!(HostId::local(), local, "host id is stable in-process");
        let hex = local.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(HostId::parse_hex(&hex), Some(local));
        assert_eq!(HostId::parse_hex("xyz"), None);
        assert_eq!(HostId::parse_hex(&hex[..31]), None);
    }

    #[test]
    fn address_book_host_skew_is_a_typed_error() {
        let wrong = HostId::parse_hex("deadbeefdeadbeefdeadbeefdeadbeef").unwrap();
        assert_ne!(wrong, HostId::local());
        let err = TcpBootstrap::address_book_with_hosts(
            0,
            vec![free_addr(), free_addr()],
            vec![Some(wrong), None],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            BootstrapError::HostIdentitySkew { rank: 0, .. }
        ));
        // A correct (or absent) own entry is fine, and our slot is
        // filled in with the measured identity.
        let boot = TcpBootstrap::address_book_with_hosts(
            0,
            vec![free_addr(), free_addr()],
            vec![None, Some(wrong)],
        )
        .unwrap();
        assert_eq!(boot.host_ids()[0], Some(HostId::local()));
        assert_eq!(boot.host_ids()[1], Some(wrong));
        // Differing known identities ⇒ not same host, even on loopback.
        assert!(!boot.same_host(0, 1));
        assert!(boot.same_host(0, 0));
    }

    #[test]
    fn same_host_falls_back_to_loopback_heuristic() {
        let boot = TcpBootstrap::address_book(0, vec![free_addr(), free_addr()]).unwrap();
        // Rank 1's identity is unknown, but both addresses are
        // loopback, so the pair still negotiates same-host.
        assert_eq!(boot.host_ids()[1], None);
        assert!(boot.same_host(0, 1));
    }

    #[test]
    fn topology_from_env_book_suffix_parses() {
        // Exercise the suffix parser directly rather than through the
        // (process-global) environment.
        let local = HostId::local();
        let entry = format!("127.0.0.1:9099@{local}");
        let (addr, hex) = entry.rsplit_once('@').unwrap();
        assert_eq!(addr.parse::<SocketAddr>().unwrap().port(), 9099);
        assert_eq!(HostId::parse_hex(hex), Some(local));
    }

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }
}

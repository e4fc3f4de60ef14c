//! The open-loop load generator.
//!
//! Each thread drives its connections from one `ppoll(2)` loop over
//! non-blocking sockets. The wait until the next due time is a `ppoll`
//! timeout with nanosecond resolution (timer slack 1 ns), which also
//! returns the moment a response arrives; socket read timeouts
//! (`SO_RCVTIMEO`) are never used, since they are jiffy-granular and would
//! add milliseconds to every wait. Responses are timed by the kernel's
//! receive stamp (`SO_TIMESTAMPNS`), not by when the thread got to them.
//! Requests go out at their due times whatever is still in flight
//! (HTTP/1.1 pipelining), latency is timed from the due time, and how
//! late the generator itself sent each request is recorded beside it.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nshard_serve::Gauge;

use crate::http::{request, ResponseReader};

/// The few Linux calls the generator needs beyond `std`: `ppoll(2)` for
/// precise waits, `recvmsg(2)` for kernel receive timestamps, and
/// `prctl(2)` to drop the thread's timer slack.
mod sys {
    use std::ffi::c_void;
    use std::time::{Duration, Instant};

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    #[repr(C)]
    struct Iovec {
        base: *mut c_void,
        len: usize,
    }

    #[repr(C)]
    struct Msghdr {
        name: *mut c_void,
        namelen: u32,
        iov: *mut Iovec,
        iovlen: usize,
        control: *mut c_void,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct Cmsghdr {
        len: usize,
        level: i32,
        kind: i32,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    const SOL_SOCKET: i32 = 1;
    const SO_TIMESTAMPNS: i32 = 35;
    const MSG_DONTWAIT: i32 = 0x40;
    const CLOCK_REALTIME: i32 = 0;
    const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> i32;
        fn recvmsg(fd: i32, msg: *mut Msghdr, flags: i32) -> isize;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }

    const PRIO_PROCESS: i32 = 0;

    /// Lowers the calling thread's priority to nice `nice` (Linux applies
    /// `PRIO_PROCESS` with `who = 0` to the calling thread; threads it
    /// creates afterwards inherit it). Raising nice needs no privilege.
    pub fn lower_priority(nice: i32) -> std::io::Result<()> {
        // SAFETY: setpriority takes plain integers and touches no memory
        // of the caller.
        if unsafe { setpriority(PRIO_PROCESS, 0, nice) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until a descriptor is ready or `timeout` has passed.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
        let ts = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `fds.len()`
        // `struct pollfd`s (same layout: int, short, short) that lives for
        // the whole call; `ts` is a valid `struct timespec` (two 64-bit
        // fields on 64-bit Linux) on this stack frame; a null signal mask
        // leaves the thread's mask unchanged.
        let r = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
        if r < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Sets this thread's timer slack to 1 ns, so `ppoll` timeouts expire
    /// on time instead of up to the default 50 µs late. Best effort.
    pub fn tight_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
        // no memory of the caller.
        let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    }

    /// Asks the kernel to stamp received data with its arrival time.
    pub fn enable_rx_timestamps(fd: i32) -> std::io::Result<()> {
        let on: i32 = 1;
        // SAFETY: `fd` is an open socket owned by the caller; the option
        // value is a valid `int` on this stack frame, with its size.
        let r = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_TIMESTAMPNS,
                (&on as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        if r < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Maps kernel receive timestamps (`CLOCK_REALTIME`) onto `Instant`s.
    #[derive(Clone, Copy)]
    struct RxClock {
        real: Timespec,
        mono: Instant,
    }

    impl RxClock {
        fn now() -> Self {
            let mut real = Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            };
            // SAFETY: `real` is a valid, writable `struct timespec`.
            unsafe { clock_gettime(CLOCK_REALTIME, &mut real) };
            Self {
                real,
                mono: Instant::now(),
            }
        }

        fn instant(&self, ts: Timespec) -> Instant {
            let ns = |t: Timespec| i128::from(t.tv_sec) * 1_000_000_000 + i128::from(t.tv_nsec);
            let d = ns(ts) - ns(self.real);
            let off = Duration::from_nanos(d.unsigned_abs().min(u128::from(u64::MAX)) as u64);
            if d >= 0 {
                self.mono + off
            } else {
                self.mono.checked_sub(off).unwrap_or(self.mono)
            }
        }
    }

    /// One non-blocking `recvmsg` into `buf`: the byte count (`0` at end
    /// of stream) and the kernel's arrival time of the data, when stamped.
    /// The clock mapping is taken afresh per call, so a wall-clock slew
    /// during the run cannot accumulate into the stamps.
    pub fn recv_stamped(fd: i32, buf: &mut [u8]) -> std::io::Result<(usize, Option<Instant>)> {
        let clock = RxClock::now();
        let mut iov = Iovec {
            base: buf.as_mut_ptr().cast(),
            len: buf.len(),
        };
        let mut control = [0u64; 16];
        let mut msg = Msghdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: &mut iov,
            iovlen: 1,
            control: control.as_mut_ptr().cast(),
            controllen: std::mem::size_of_val(&control),
            flags: 0,
        };
        // SAFETY: `msg` points at one valid iovec over `buf` (exclusively
        // borrowed, `buf.len()` bytes) and at `control`, an 8-aligned
        // buffer of `controllen` bytes; all live for the whole call.
        let n = unsafe { recvmsg(fd, &mut msg, MSG_DONTWAIT) };
        if n < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // Walk the control messages the kernel wrote (at most
        // `msg.controllen` bytes of `control`), each header 8-aligned.
        let header = std::mem::size_of::<Cmsghdr>();
        let used = msg.controllen.min(std::mem::size_of_val(&control));
        let bytes: Vec<u8> = control.iter().flat_map(|w| w.to_ne_bytes()).collect();
        let mut at = 0usize;
        let mut stamp = None;
        while at + header <= used {
            let len = usize::from_ne_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
            let level = i32::from_ne_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes"));
            let kind = i32::from_ne_bytes(bytes[at + 12..at + 16].try_into().expect("4 bytes"));
            if len < header || at + len > used {
                break;
            }
            if level == SOL_SOCKET && kind == SO_TIMESTAMPNS && len >= header + 16 {
                let d = &bytes[at + header..at + header + 16];
                let ts = Timespec {
                    tv_sec: i64::from_ne_bytes(d[..8].try_into().expect("8 bytes")),
                    tv_nsec: i64::from_ne_bytes(d[8..].try_into().expect("8 bytes")),
                };
                stamp = Some(clock.instant(ts));
            }
            at += (len + 7) & !7;
        }
        Ok((n as usize, stamp))
    }
}

/// Generator threads, spawned before the daemon so they keep the normal
/// scheduling priority while the daemon's threads run at a lower one: a
/// client on its own machine does not queue for the daemon's CPUs, so
/// neither may the generator, or its lateness would be charged to the
/// daemon.
pub struct Generators {
    jobs: Vec<std::sync::mpsc::Sender<(Arc<Drive>, Vec<ConnPlan>)>>,
    threads: Vec<std::thread::JoinHandle<Vec<ConnResult>>>,
}

/// Nice value of the threads that start the daemon.
const DAEMON_NICE: i32 = 10;

impl Generators {
    /// Spawns `n` idle generator threads, then lowers the calling thread's
    /// priority, so the daemon it starts next runs below the generators.
    pub fn spawn_then_lower_caller(n: usize) -> Self {
        let (jobs, threads) = (0..n)
            .map(|_| {
                let (tx, rx) = std::sync::mpsc::channel::<(Arc<Drive>, Vec<ConnPlan>)>();
                let handle = std::thread::spawn(move || {
                    rx.recv()
                        .map(|(d, plans)| drive(&d, plans))
                        .unwrap_or_default()
                });
                (tx, handle)
            })
            .unzip();
        if let Err(e) = sys::lower_priority(DAEMON_NICE) {
            eprintln!("could not lower the daemon's priority: {e}");
        }
        Self { jobs, threads }
    }

    /// Drives `plans[i]` on thread `i` and waits for all of them.
    pub fn run(self, d: Drive, plans: Vec<Vec<ConnPlan>>) -> Vec<ConnResult> {
        assert_eq!(
            plans.len(),
            self.threads.len(),
            "one plan list per generator thread"
        );
        let d = Arc::new(d);
        for (job, p) in self.jobs.iter().zip(plans) {
            job.send((Arc::clone(&d), p))
                .expect("generator thread is waiting");
        }
        drop(self.jobs);
        self.threads
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    }
}

/// What one connection sends: `(due_ns, body)` pairs in due order, where
/// `body` indexes the shared request table.
pub struct ConnPlan {
    /// The schedule.
    pub arrivals: Vec<(u64, usize)>,
}

/// One request's fate.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the request table.
    pub body: usize,
    /// Status code; `0` when no response came.
    pub status: u16,
    /// From due time to the last response byte read, ms.
    pub latency_ms: f64,
    /// How late the generator queued the request for sending, ms.
    pub late_ms: f64,
    /// The response body.
    pub response: Vec<u8>,
}

/// What one connection saw.
pub struct ConnResult {
    /// One sample per scheduled request, in schedule order.
    pub samples: Vec<Sample>,
    /// Keep-alive pings sent because the connection sat idle.
    pub pings: u64,
    /// The largest admission-queue depth sampled while driving it.
    pub queue_depth_max: u64,
    /// Why the connection ended early, if it did.
    pub error: Option<String>,
}

/// Shared knobs of one generator run.
pub struct Drive {
    /// The daemon.
    pub addr: SocketAddr,
    /// Schedule origin.
    pub start: Instant,
    /// Request bytes by body index.
    pub requests: Arc<Vec<Vec<u8>>>,
    /// A connection idle this long sends `GET /health`, keeping it inside
    /// the daemon's idle timeout however light its traffic.
    pub ping_after: Duration,
    /// Give up on responses this long after the last due time.
    pub drain_limit: Duration,
    /// Sampled after every wake-up when set (traced runs only).
    pub queue_depth: Option<Arc<Gauge>>,
}

struct Live {
    stream: TcpStream,
    arrivals: Vec<(u64, usize)>,
    next: usize,
    out: Vec<u8>,
    written: usize,
    reader: ResponseReader,
    /// Schedule positions in flight, oldest first; `None` is a ping.
    inflight: VecDeque<(Option<usize>, Instant)>,
    result: ConnResult,
    last_io: Instant,
}

impl Live {
    fn done(&self) -> bool {
        self.result.error.is_some()
            || (self.next == self.arrivals.len() && self.inflight.is_empty())
    }

    fn fail(&mut self, why: String) {
        if self.result.error.is_none() {
            self.result.error = Some(why);
        }
    }

    fn flush(&mut self) {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return self.fail("connection closed while writing".into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return self.fail(format!("write: {e}")),
            }
        }
        self.out.clear();
        self.written = 0;
    }

    /// Reads what has arrived and completes the responses it frames. A
    /// response's arrival time is the kernel's receive stamp of the last
    /// bytes read, so generator scheduling delay after arrival does not
    /// count as latency.
    fn receive(&mut self, buf: &mut [u8]) {
        let mut arrived = None;
        loop {
            match sys::recv_stamped(self.stream.as_raw_fd(), buf) {
                Ok((0, _)) => return self.fail("daemon closed the connection".into()),
                Ok((n, stamp)) => {
                    self.reader.feed(&buf[..n]);
                    arrived = stamp.or(arrived);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return self.fail(format!("read: {e}")),
            }
        }
        let now = arrived.unwrap_or_else(Instant::now);
        loop {
            match self.reader.next_response() {
                Ok(Some(r)) => {
                    self.last_io = now;
                    match self.inflight.pop_front() {
                        Some((Some(i), due)) => {
                            let s = &mut self.result.samples[i];
                            s.status = r.status;
                            s.latency_ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                            s.response = r.body;
                        }
                        Some((None, _)) if r.status == 200 => {}
                        Some((None, _)) => self.fail(format!("keep-alive ping got {}", r.status)),
                        None => self.fail("response to no request".into()),
                    }
                    if r.close {
                        self.fail("daemon announced Connection: close".into());
                    }
                }
                Ok(None) => break,
                Err(e) => return self.fail(format!("framing: {e}")),
            }
        }
    }
}

/// Drives `plans`, one connection each, from the calling thread.
pub fn drive(d: &Drive, plans: Vec<ConnPlan>) -> Vec<ConnResult> {
    sys::tight_timer_slack();
    let ping = request("GET", "/health", b"");
    let mut conns: Vec<Live> = plans
        .into_iter()
        .map(|p| {
            let samples = p
                .arrivals
                .iter()
                .map(|&(_, body)| Sample {
                    body,
                    status: 0,
                    latency_ms: f64::NAN,
                    late_ms: f64::NAN,
                    response: Vec::new(),
                })
                .collect();
            let stream = TcpStream::connect(d.addr).expect("connect to the daemon");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            stream.set_nonblocking(true).expect("set O_NONBLOCK");
            sys::enable_rx_timestamps(stream.as_raw_fd()).expect("enable SO_TIMESTAMPNS");
            Live {
                stream,
                arrivals: p.arrivals,
                next: 0,
                out: Vec::new(),
                written: 0,
                reader: ResponseReader::default(),
                inflight: VecDeque::new(),
                result: ConnResult {
                    samples,
                    pings: 0,
                    queue_depth_max: 0,
                    error: None,
                },
                last_io: Instant::now(),
            }
        })
        .collect();
    let last_due = conns
        .iter()
        .filter_map(|c| c.arrivals.last())
        .map(|a| a.0)
        .max()
        .unwrap_or(0);
    let give_up = d.start + Duration::from_nanos(last_due) + d.drain_limit;
    let mut buf = vec![0u8; 1 << 16];
    let mut depth_max = 0u64;
    loop {
        let now = Instant::now();
        for c in conns.iter_mut().filter(|c| c.result.error.is_none()) {
            while let Some(&(due_ns, body)) = c.arrivals.get(c.next) {
                let due = d.start + Duration::from_nanos(due_ns);
                if due > now {
                    break;
                }
                c.out.extend_from_slice(&d.requests[body]);
                c.result.samples[c.next].late_ms = (now - due).as_secs_f64() * 1e3;
                c.inflight.push_back((Some(c.next), due));
                c.next += 1;
                c.last_io = now;
            }
            if c.inflight.is_empty() && now - c.last_io >= d.ping_after && c.next < c.arrivals.len()
            {
                c.out.extend_from_slice(&ping);
                c.inflight.push_back((None, now));
                c.result.pings += 1;
                c.last_io = now;
            }
            c.flush();
            c.receive(&mut buf);
        }
        if let Some(g) = &d.queue_depth {
            depth_max = depth_max.max(g.get());
        }
        if conns.iter().all(Live::done) {
            break;
        }
        if now > give_up {
            for c in &mut conns {
                c.fail(format!(
                    "{} responses still missing at the drain limit",
                    c.inflight.len()
                ));
            }
            break;
        }
        let mut wake = now + Duration::from_millis(50);
        let mut fds = Vec::new();
        for c in conns.iter().filter(|c| !c.done()) {
            if let Some(&(due_ns, _)) = c.arrivals.get(c.next) {
                wake = wake.min(d.start + Duration::from_nanos(due_ns));
                if c.inflight.is_empty() {
                    wake = wake.min(c.last_io + d.ping_after);
                }
            }
            let write = if c.out.is_empty() { 0 } else { sys::POLLOUT };
            fds.push(sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events: sys::POLLIN | write,
                revents: 0,
            });
        }
        if let Err(e) = sys::wait(&mut fds, wake.saturating_duration_since(Instant::now())) {
            for c in &mut conns {
                c.fail(format!("ppoll: {e}"));
            }
            break;
        }
    }
    conns
        .into_iter()
        .map(|mut c| {
            c.result.queue_depth_max = depth_max;
            c.result
        })
        .collect()
}

//! A small thread-per-task async runtime standing in for `tokio`.
//!
//! This workspace builds in environments with no network access, so the
//! real tokio cannot be fetched. `matrix-rt` only needs a modest slice of
//! the API — unbounded channels, oneshots, `spawn`, `select!`, timers and
//! a TCP accept/connect path — and this crate implements exactly that
//! slice with honest semantics:
//!
//! * **Executor** — `runtime::block_on` polls a future on the current
//!   thread with a park/unpark waker; `spawn` runs each task on its own
//!   OS thread. With a dozen node tasks per cluster this is well inside
//!   sensible thread counts, and it gives true parallelism.
//! * **Channels** — `sync::mpsc::unbounded_channel` and `sync::oneshot`
//!   are mutex-and-waker implementations with tokio's closed/disconnect
//!   semantics.
//! * **Timers** — one global timer thread wakes sleepers; `sleep`,
//!   `timeout` and `interval` (with `MissedTickBehavior::Delay`
//!   semantics) build on it.
//! * **select!** — supports the two- and three-branch `pat = expr =>
//!   block` form used in this workspace, polling branches in declaration
//!   order (i.e. like `tokio::select! { biased; ... }`).
//! * **TCP** — `net::TcpListener`/`TcpStream` wrap the std types;
//!   `io::AsyncChunkReadExt::into_chunks` pumps a blocking reader thread
//!   into an async channel so reads compose with `select!`.
//!
//! Swap the real tokio back in by removing this shim from the workspace;
//! the API subset is call-compatible.

#![forbid(unsafe_code)]

pub use tokio_macros::{main, test};

pub mod runtime {
    //! The `block_on` executor.

    use std::future::Future;
    use std::pin::pin;
    use std::sync::Arc;
    use std::task::{Context, Poll, Wake, Waker};
    use std::thread::{self, Thread};

    struct ThreadWaker(Thread);

    impl Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.unpark();
        }
    }

    /// Runs a future to completion on the current thread, parking between
    /// polls.
    pub fn block_on<F: Future>(fut: F) -> F::Output {
        let mut fut = pin!(fut);
        let waker = Waker::from(Arc::new(ThreadWaker(thread::current())));
        let mut cx = Context::from_waker(&waker);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => thread::park(),
            }
        }
    }
}

pub mod task {
    //! Task spawning (thread-per-task).

    use crate::sync::oneshot;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll};

    /// Error returned when a spawned task's thread died before producing
    /// a value.
    #[derive(Debug)]
    pub struct JoinError;

    impl std::fmt::Display for JoinError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "task failed")
        }
    }

    impl std::error::Error for JoinError {}

    /// Handle to a spawned task; awaiting it yields the task's output.
    #[derive(Debug)]
    pub struct JoinHandle<T> {
        rx: oneshot::Receiver<T>,
    }

    impl<T> Future for JoinHandle<T> {
        type Output = Result<T, JoinError>;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            Pin::new(&mut self.rx)
                .poll(cx)
                .map(|r| r.map_err(|_| JoinError))
        }
    }

    /// Spawns a future on its own OS thread.
    pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (tx, rx) = oneshot::channel();
        std::thread::Builder::new()
            .name("tokio-shim-task".into())
            .spawn(move || {
                let out = crate::runtime::block_on(fut);
                let _ = tx.send(out);
            })
            .expect("failed to spawn task thread");
        JoinHandle { rx }
    }
}

pub use task::spawn;

pub mod sync {
    //! Channels: unbounded mpsc and oneshot.

    pub mod mpsc {
        //! Unbounded multi-producer single-consumer channel.

        use std::collections::VecDeque;
        use std::future::Future;
        use std::pin::Pin;
        use std::sync::{Arc, Mutex};
        use std::task::{Context, Poll, Waker};

        struct State<T> {
            queue: VecDeque<T>,
            senders: usize,
            receiver_alive: bool,
            waker: Option<Waker>,
        }

        struct Shared<T> {
            state: Mutex<State<T>>,
        }

        /// Error: the receiver was dropped or closed.
        #[derive(Debug, PartialEq, Eq)]
        pub struct SendError<T>(pub T);

        impl<T> std::fmt::Display for SendError<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "channel closed")
            }
        }

        /// Error from [`UnboundedReceiver::try_recv`].
        #[derive(Debug, PartialEq, Eq)]
        pub enum TryRecvError {
            /// No message is currently queued.
            Empty,
            /// All senders are gone and the queue is drained.
            Disconnected,
        }

        /// The sending half.
        pub struct UnboundedSender<T> {
            shared: Arc<Shared<T>>,
        }

        /// The receiving half.
        pub struct UnboundedReceiver<T> {
            shared: Arc<Shared<T>>,
        }

        impl<T> std::fmt::Debug for UnboundedSender<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "UnboundedSender")
            }
        }

        impl<T> std::fmt::Debug for UnboundedReceiver<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "UnboundedReceiver")
            }
        }

        /// Creates an unbounded channel.
        pub fn unbounded_channel<T>() -> (UnboundedSender<T>, UnboundedReceiver<T>) {
            let shared = Arc::new(Shared {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    senders: 1,
                    receiver_alive: true,
                    waker: None,
                }),
            });
            (
                UnboundedSender {
                    shared: shared.clone(),
                },
                UnboundedReceiver { shared },
            )
        }

        impl<T> Clone for UnboundedSender<T> {
            fn clone(&self) -> Self {
                self.shared.state.lock().expect("mpsc lock").senders += 1;
                UnboundedSender {
                    shared: self.shared.clone(),
                }
            }
        }

        impl<T> Drop for UnboundedSender<T> {
            fn drop(&mut self) {
                let waker = {
                    let mut st = self.shared.state.lock().expect("mpsc lock");
                    st.senders -= 1;
                    if st.senders == 0 {
                        st.waker.take()
                    } else {
                        None
                    }
                };
                if let Some(w) = waker {
                    w.wake();
                }
            }
        }

        impl<T> Drop for UnboundedReceiver<T> {
            fn drop(&mut self) {
                self.shared.state.lock().expect("mpsc lock").receiver_alive = false;
            }
        }

        impl<T> UnboundedSender<T> {
            /// Queues a message; fails if the receiver is gone.
            pub fn send(&self, value: T) -> Result<(), SendError<T>> {
                let waker = {
                    let mut st = self.shared.state.lock().expect("mpsc lock");
                    if !st.receiver_alive {
                        return Err(SendError(value));
                    }
                    st.queue.push_back(value);
                    st.waker.take()
                };
                if let Some(w) = waker {
                    w.wake();
                }
                Ok(())
            }
        }

        impl<T> UnboundedReceiver<T> {
            /// Awaits the next message; `None` once all senders are gone
            /// and the queue is drained.
            pub fn recv(&mut self) -> Recv<'_, T> {
                Recv { rx: self }
            }

            /// Non-blocking receive.
            pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
                let mut st = self.shared.state.lock().expect("mpsc lock");
                match st.queue.pop_front() {
                    Some(v) => Ok(v),
                    None if st.senders == 0 => Err(TryRecvError::Disconnected),
                    None => Err(TryRecvError::Empty),
                }
            }

            /// Prevents further sends; queued messages can still be
            /// received.
            pub fn close(&mut self) {
                self.shared.state.lock().expect("mpsc lock").receiver_alive = false;
            }
        }

        /// Future returned by [`UnboundedReceiver::recv`].
        pub struct Recv<'a, T> {
            rx: &'a mut UnboundedReceiver<T>,
        }

        impl<T> Future for Recv<'_, T> {
            type Output = Option<T>;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                let mut st = self.rx.shared.state.lock().expect("mpsc lock");
                if let Some(v) = st.queue.pop_front() {
                    return Poll::Ready(Some(v));
                }
                if st.senders == 0 {
                    return Poll::Ready(None);
                }
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    pub mod oneshot {
        //! Single-value channel.

        use std::future::Future;
        use std::pin::Pin;
        use std::sync::{Arc, Mutex};
        use std::task::{Context, Poll, Waker};

        struct State<T> {
            value: Option<T>,
            sender_alive: bool,
            waker: Option<Waker>,
        }

        /// The sender was dropped without sending.
        #[derive(Debug, PartialEq, Eq)]
        pub struct RecvError;

        impl std::fmt::Display for RecvError {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "oneshot sender dropped")
            }
        }

        impl std::error::Error for RecvError {}

        /// Sending half: consumes itself on send.
        pub struct Sender<T> {
            shared: Arc<Mutex<State<T>>>,
        }

        /// Receiving half; a future yielding `Result<T, RecvError>`.
        pub struct Receiver<T> {
            shared: Arc<Mutex<State<T>>>,
        }

        impl<T> std::fmt::Debug for Sender<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "oneshot::Sender")
            }
        }

        impl<T> std::fmt::Debug for Receiver<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "oneshot::Receiver")
            }
        }

        /// Creates a oneshot channel.
        pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
            let shared = Arc::new(Mutex::new(State {
                value: None,
                sender_alive: true,
                waker: None,
            }));
            (
                Sender {
                    shared: shared.clone(),
                },
                Receiver { shared },
            )
        }

        impl<T> Sender<T> {
            /// Delivers the value; fails (returning it) if the receiver is
            /// gone.
            pub fn send(self, value: T) -> Result<(), T> {
                let waker = {
                    let mut st = self.shared.lock().expect("oneshot lock");
                    if Arc::strong_count(&self.shared) < 2 {
                        return Err(value);
                    }
                    st.value = Some(value);
                    st.waker.take()
                };
                if let Some(w) = waker {
                    w.wake();
                }
                Ok(())
            }
        }

        impl<T> Drop for Sender<T> {
            fn drop(&mut self) {
                let waker = {
                    let mut st = self.shared.lock().expect("oneshot lock");
                    st.sender_alive = false;
                    st.waker.take()
                };
                if let Some(w) = waker {
                    w.wake();
                }
            }
        }

        impl<T> Future for Receiver<T> {
            type Output = Result<T, RecvError>;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                let mut st = self.shared.lock().expect("oneshot lock");
                if let Some(v) = st.value.take() {
                    return Poll::Ready(Ok(v));
                }
                if !st.sender_alive {
                    return Poll::Ready(Err(RecvError));
                }
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

pub mod time {
    //! Timers: sleep, timeout, interval.

    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Condvar, Mutex, OnceLock};
    use std::task::{Context, Poll, Waker};
    use std::time::{Duration, Instant};

    struct TimerQueue {
        entries: Mutex<Vec<(Instant, Waker)>>,
        cond: Condvar,
    }

    fn timer() -> &'static TimerQueue {
        static TIMER: OnceLock<&'static TimerQueue> = OnceLock::new();
        TIMER.get_or_init(|| {
            let q: &'static TimerQueue = Box::leak(Box::new(TimerQueue {
                entries: Mutex::new(Vec::new()),
                cond: Condvar::new(),
            }));
            std::thread::Builder::new()
                .name("tokio-shim-timer".into())
                .spawn(move || timer_loop(q))
                .expect("failed to spawn timer thread");
            q
        })
    }

    fn timer_loop(q: &'static TimerQueue) {
        let mut entries = q.entries.lock().expect("timer lock");
        loop {
            let now = Instant::now();
            let mut due = Vec::new();
            entries.retain(|(at, w)| {
                if *at <= now {
                    due.push(w.clone());
                    false
                } else {
                    true
                }
            });
            if !due.is_empty() {
                drop(entries);
                for w in due {
                    w.wake();
                }
                entries = q.entries.lock().expect("timer lock");
                continue;
            }
            entries = match entries.iter().map(|(at, _)| *at).min() {
                Some(next) => {
                    let wait = next.saturating_duration_since(now);
                    q.cond.wait_timeout(entries, wait).expect("timer lock").0
                }
                None => q.cond.wait(entries).expect("timer lock"),
            };
        }
    }

    fn register(deadline: Instant, waker: Waker) {
        let q = timer();
        q.entries
            .lock()
            .expect("timer lock")
            .push((deadline, waker));
        q.cond.notify_one();
    }

    /// Future returned by [`sleep`].
    pub struct Sleep {
        deadline: Instant,
    }

    impl Future for Sleep {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if Instant::now() >= self.deadline {
                Poll::Ready(())
            } else {
                register(self.deadline, cx.waker().clone());
                Poll::Pending
            }
        }
    }

    /// Completes after `duration`.
    pub fn sleep(duration: Duration) -> Sleep {
        Sleep {
            deadline: Instant::now() + duration,
        }
    }

    /// The deadline elapsed before the wrapped future finished.
    #[derive(Debug, PartialEq, Eq)]
    pub struct Elapsed;

    impl std::fmt::Display for Elapsed {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "deadline elapsed")
        }
    }

    impl std::error::Error for Elapsed {}

    /// Future returned by [`timeout`].
    pub struct Timeout<F> {
        fut: Pin<Box<F>>,
        deadline: Instant,
    }

    impl<F: Future> Future for Timeout<F> {
        type Output = Result<F::Output, Elapsed>;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            if let Poll::Ready(v) = self.fut.as_mut().poll(cx) {
                return Poll::Ready(Ok(v));
            }
            if Instant::now() >= self.deadline {
                return Poll::Ready(Err(Elapsed));
            }
            register(self.deadline, cx.waker().clone());
            Poll::Pending
        }
    }

    /// Bounds a future's completion time.
    pub fn timeout<F: Future>(duration: Duration, fut: F) -> Timeout<F> {
        Timeout {
            fut: Box::pin(fut),
            deadline: Instant::now() + duration,
        }
    }

    /// What to do when interval ticks are missed. The shim always behaves
    /// like [`MissedTickBehavior::Delay`] (next tick is re-anchored to
    /// "now + period"), which is the behaviour this workspace selects.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum MissedTickBehavior {
        /// Fire missed ticks back to back.
        #[default]
        Burst,
        /// Re-anchor after a missed tick.
        Delay,
        /// Skip missed ticks.
        Skip,
    }

    /// A periodic timer; the first tick completes immediately.
    pub struct Interval {
        next: Instant,
        period: Duration,
    }

    impl Interval {
        /// Completes at the next tick instant.
        pub fn tick(&mut self) -> Tick<'_> {
            Tick { interval: self }
        }

        /// Accepted for API compatibility; the shim always uses `Delay`
        /// semantics.
        pub fn set_missed_tick_behavior(&mut self, _behavior: MissedTickBehavior) {}
    }

    /// Future returned by [`Interval::tick`].
    pub struct Tick<'a> {
        interval: &'a mut Interval,
    }

    impl Future for Tick<'_> {
        type Output = Instant;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Instant> {
            let now = Instant::now();
            if now >= self.interval.next {
                let period = self.interval.period;
                self.interval.next = now + period;
                return Poll::Ready(now);
            }
            register(self.interval.next, cx.waker().clone());
            Poll::Pending
        }
    }

    /// Creates a periodic timer whose first tick fires immediately.
    pub fn interval(period: Duration) -> Interval {
        Interval {
            next: Instant::now(),
            period,
        }
    }
}

pub mod net {
    //! TCP wrappers over the std networking types.
    //!
    //! `accept`/`connect` perform blocking syscalls inside async fns; with
    //! the thread-per-task executor each task owns its thread, so this
    //! blocks nothing else.

    use std::io;
    use std::net::SocketAddr;
    pub use std::net::ToSocketAddrs;

    /// A TCP listener.
    #[derive(Debug)]
    pub struct TcpListener(std::net::TcpListener);

    impl TcpListener {
        /// Binds to the first resolvable address.
        pub async fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
            Ok(TcpListener(std::net::TcpListener::bind(addr)?))
        }

        /// The bound local address.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.0.local_addr()
        }

        /// Accepts one connection (blocking the calling task's thread).
        pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
            let (stream, addr) = self.0.accept()?;
            Ok((TcpStream(stream), addr))
        }
    }

    /// A TCP connection.
    #[derive(Debug)]
    pub struct TcpStream(pub(crate) std::net::TcpStream);

    impl TcpStream {
        /// Connects to the first resolvable address.
        pub async fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
            Ok(TcpStream(std::net::TcpStream::connect(addr)?))
        }

        /// Splits into independently owned read/write halves.
        pub fn into_split(self) -> (tcp::OwnedReadHalf, tcp::OwnedWriteHalf) {
            let read = self.0.try_clone().expect("tcp stream clone");
            (tcp::OwnedReadHalf(read), tcp::OwnedWriteHalf(self.0))
        }
    }

    pub mod tcp {
        //! Owned stream halves.

        /// The read half of a split [`super::TcpStream`].
        #[derive(Debug)]
        pub struct OwnedReadHalf(pub(crate) std::net::TcpStream);

        /// The write half of a split [`super::TcpStream`].
        #[derive(Debug)]
        pub struct OwnedWriteHalf(pub(crate) std::net::TcpStream);

        impl Drop for OwnedWriteHalf {
            fn drop(&mut self) {
                // The read half is a `try_clone` of the same socket, often
                // parked in a blocking read on its own thread; without an
                // explicit shutdown the connection would stay half-open
                // after the writer is gone (a remote peer would hang
                // instead of seeing EOF).
                let _ = self.0.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

pub mod io {
    //! Async-flavoured chunk reading and writing over the TCP halves.

    use crate::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
    use crate::sync::mpsc;
    use std::future::{ready, Ready};
    use std::io::{self, Write};

    /// Raw byte-chunk stream over a reader (see
    /// [`AsyncChunkReadExt::into_chunks`]). Chunk boundaries are
    /// arbitrary — whatever one socket read returned — so consumers
    /// must delimit their own frames (length prefixes, magic bytes).
    #[derive(Debug)]
    pub struct Chunks {
        rx: mpsc::UnboundedReceiver<io::Result<Vec<u8>>>,
    }

    impl Chunks {
        /// The next chunk of received bytes; `Ok(None)` at EOF.
        pub async fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
            match self.rx.recv().await {
                Some(Ok(chunk)) => Ok(Some(chunk)),
                Some(Err(e)) => Err(e),
                None => Ok(None),
            }
        }
    }

    /// Byte-chunk streaming for framing-agnostic protocols (the binary
    /// wire codec delimits its own frames): a pump thread feeds an async
    /// channel.
    pub trait AsyncChunkReadExt {
        /// Converts the reader into a chunk stream.
        fn into_chunks(self) -> Chunks;
    }

    impl AsyncChunkReadExt for OwnedReadHalf {
        fn into_chunks(self) -> Chunks {
            let (tx, rx) = mpsc::unbounded_channel();
            let mut stream = self.0;
            std::thread::Builder::new()
                .name("tokio-shim-chunk-reader".into())
                .spawn(move || {
                    let mut buf = [0u8; 16 * 1024];
                    loop {
                        match io::Read::read(&mut stream, &mut buf) {
                            Ok(0) => break,
                            Ok(n) => {
                                if tx.send(Ok(buf[..n].to_vec())).is_err() {
                                    break;
                                }
                            }
                            Err(e) => {
                                let _ = tx.send(Err(e));
                                break;
                            }
                        }
                    }
                })
                .expect("failed to spawn chunk-reader thread");
            Chunks { rx }
        }
    }

    /// Subset of tokio's `AsyncWriteExt`: whole-buffer writes.
    pub trait AsyncWriteExt {
        /// Writes the entire buffer (performed eagerly; the returned
        /// future is immediately ready).
        fn write_all<'a>(&'a mut self, buf: &'a [u8]) -> Ready<io::Result<()>>;
    }

    impl AsyncWriteExt for OwnedWriteHalf {
        fn write_all<'a>(&'a mut self, buf: &'a [u8]) -> Ready<io::Result<()>> {
            ready(self.0.write_all(buf).and_then(|()| self.0.flush()))
        }
    }
}

pub mod macros {
    //! Support types for the [`select!`](crate::select) macro.

    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll};

    /// Outcome of a two-branch select.
    pub enum Either2<A, B> {
        /// The first branch completed.
        First(A),
        /// The second branch completed.
        Second(B),
    }

    /// Outcome of a three-branch select.
    pub enum Either3<A, B, C> {
        /// The first branch completed.
        First(A),
        /// The second branch completed.
        Second(B),
        /// The third branch completed.
        Third(C),
    }

    /// Polls two futures in order, yielding whichever finishes first.
    pub struct Select2<F1, F2> {
        f1: Pin<Box<F1>>,
        f2: Pin<Box<F2>>,
    }

    /// Builds a [`Select2`].
    pub fn select2<F1: Future, F2: Future>(f1: F1, f2: F2) -> Select2<F1, F2> {
        Select2 {
            f1: Box::pin(f1),
            f2: Box::pin(f2),
        }
    }

    impl<F1: Future, F2: Future> Future for Select2<F1, F2> {
        type Output = Either2<F1::Output, F2::Output>;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            if let Poll::Ready(v) = self.f1.as_mut().poll(cx) {
                return Poll::Ready(Either2::First(v));
            }
            if let Poll::Ready(v) = self.f2.as_mut().poll(cx) {
                return Poll::Ready(Either2::Second(v));
            }
            Poll::Pending
        }
    }

    /// Polls three futures in order, yielding whichever finishes first.
    pub struct Select3<F1, F2, F3> {
        f1: Pin<Box<F1>>,
        f2: Pin<Box<F2>>,
        f3: Pin<Box<F3>>,
    }

    /// Builds a [`Select3`].
    pub fn select3<F1: Future, F2: Future, F3: Future>(
        f1: F1,
        f2: F2,
        f3: F3,
    ) -> Select3<F1, F2, F3> {
        Select3 {
            f1: Box::pin(f1),
            f2: Box::pin(f2),
            f3: Box::pin(f3),
        }
    }

    impl<F1: Future, F2: Future, F3: Future> Future for Select3<F1, F2, F3> {
        type Output = Either3<F1::Output, F2::Output, F3::Output>;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            if let Poll::Ready(v) = self.f1.as_mut().poll(cx) {
                return Poll::Ready(Either3::First(v));
            }
            if let Poll::Ready(v) = self.f2.as_mut().poll(cx) {
                return Poll::Ready(Either3::Second(v));
            }
            if let Poll::Ready(v) = self.f3.as_mut().poll(cx) {
                return Poll::Ready(Either3::Third(v));
            }
            Poll::Pending
        }
    }
}

/// Two- or three-branch `select!` over `pat = expr => block` arms,
/// polled in declaration order (equivalent to tokio's `biased;` mode).
#[macro_export]
macro_rules! select {
    ($p1:pat = $e1:expr => $b1:block $p2:pat = $e2:expr => $b2:block $(,)?) => {
        match $crate::macros::select2($e1, $e2).await {
            $crate::macros::Either2::First($p1) => $b1,
            $crate::macros::Either2::Second($p2) => $b2,
        }
    };
    ($p1:pat = $e1:expr => $b1:block $p2:pat = $e2:expr => $b2:block $p3:pat = $e3:expr => $b3:block $(,)?) => {
        match $crate::macros::select3($e1, $e2, $e3).await {
            $crate::macros::Either3::First($p1) => $b1,
            $crate::macros::Either3::Second($p2) => $b2,
            $crate::macros::Either3::Third($p3) => $b3,
        }
    };
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    #[test]
    fn block_on_and_sleep() {
        let start = Instant::now();
        crate::runtime::block_on(crate::time::sleep(Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn mpsc_round_trip_and_close() {
        crate::runtime::block_on(async {
            let (tx, mut rx) = crate::sync::mpsc::unbounded_channel();
            tx.send(1u32).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv().await, Some(1));
            assert_eq!(rx.try_recv(), Ok(2));
            drop(tx);
            assert_eq!(rx.recv().await, None);
        });
    }

    #[test]
    fn spawn_crosses_threads() {
        crate::runtime::block_on(async {
            let (tx, mut rx) = crate::sync::mpsc::unbounded_channel();
            crate::spawn(async move {
                crate::time::sleep(Duration::from_millis(10)).await;
                tx.send(42u32).unwrap();
            });
            assert_eq!(rx.recv().await, Some(42));
        });
    }

    #[test]
    fn oneshot_and_join_handle() {
        crate::runtime::block_on(async {
            let handle = crate::spawn(async { 7u32 });
            assert_eq!(handle.await.unwrap(), 7);
        });
    }

    #[test]
    fn timeout_elapses() {
        crate::runtime::block_on(async {
            let slow = crate::time::sleep(Duration::from_secs(5));
            let out = crate::time::timeout(Duration::from_millis(20), slow).await;
            assert!(out.is_err());
        });
    }

    #[test]
    fn timeout_passes_value() {
        crate::runtime::block_on(async {
            let out = crate::time::timeout(Duration::from_secs(1), async { 9 }).await;
            assert_eq!(out.unwrap(), 9);
        });
    }

    #[test]
    fn select_takes_ready_branch() {
        crate::runtime::block_on(async {
            let (tx, mut rx) = crate::sync::mpsc::unbounded_channel();
            tx.send(5u32).unwrap();
            let mut ticker = crate::time::interval(Duration::from_secs(10));
            // Consume the immediate first tick so the timer branch pends.
            ticker.tick().await;
            crate::select! {
                v = rx.recv() => {
                    assert_eq!(v, Some(5));
                }
                _ = ticker.tick() => {
                    panic!("timer must not win");
                }
            }
        });
    }

    #[test]
    fn interval_ticks_repeatedly() {
        crate::runtime::block_on(async {
            let start = Instant::now();
            let mut ticker = crate::time::interval(Duration::from_millis(10));
            for _ in 0..3 {
                ticker.tick().await;
            }
            // First tick is immediate, the next two wait ~10ms each.
            assert!(start.elapsed() >= Duration::from_millis(15));
        });
    }
}

//! The daemon: socket listener, per-connection request loop, and the
//! `watch` event stream.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use serde_json::Value;

use cache8t_exec::{ExecOptions, TraceStore};
use cache8t_obs::{timeline, OpLog};

use crate::protocol::{codes, ok_response, parse_request, ProtocolError, Request};
use crate::state::{JobState, ServerState};

/// Prefix selecting a unix-domain socket in `--listen` specs.
pub const UNIX_PREFIX: &str = "unix:";

/// Bound on one request line. Every legitimate request — including a
/// full-suite `submit` — is a few KB; a line this long is a confused
/// or hostile client, and buffering it without bound would let one
/// connection grow the daemon's memory arbitrarily.
pub const MAX_REQUEST_LINE: usize = 256 * 1024;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// How long the accept loop backs off after a failed accept. Failures
/// such as EMFILE persist until a connection closes, so retrying at the
/// poll rate would only spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(100);

/// Daemon configuration.
#[derive(Debug)]
pub struct ServeConfig {
    /// `host:port` for TCP, or `unix:/path/to.sock`.
    pub listen: String,
    /// Journal directory; `None` disables checkpoint/resume.
    pub checkpoint_dir: Option<PathBuf>,
    /// Pool configuration for every sweep.
    pub exec: ExecOptions,
    /// The shared trace store (stays warm across jobs and clients).
    pub store: Arc<TraceStore>,
    /// The operational log sink ([`OpLog::disabled`] for silence).
    pub oplog: Arc<OpLog>,
    /// Replay sweep traces as bounded-memory chunk streams of this many
    /// ops instead of materializing them (`None`: materialize). Results
    /// are byte-identical either way.
    pub stream_chunk_ops: Option<usize>,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Accepts one pending connection and makes it blocking; `Ok(None)`
    /// when none is pending.
    fn accept(&self) -> std::io::Result<Option<Box<dyn Conn>>> {
        let accepted = match self {
            Listener::Tcp(listener) => listener
                .accept()
                .map(|(stream, _)| Box::new(stream) as Box<dyn Conn>),
            #[cfg(unix)]
            Listener::Unix(listener, _) => listener
                .accept()
                .map(|(stream, _)| Box::new(stream) as Box<dyn Conn>),
        };
        match accepted {
            Ok(conn) => {
                conn.set_nonblocking(false)?;
                Ok(Some(conn))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Either stream type, unified for the connection handler.
trait Conn: std::io::Read + Write + Send {
    fn try_clone_reader(&self) -> std::io::Result<Box<dyn std::io::Read + Send>>;
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;
}

impl Conn for TcpStream {
    fn try_clone_reader(&self) -> std::io::Result<Box<dyn std::io::Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn try_clone_reader(&self) -> std::io::Result<Box<dyn std::io::Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    state: Arc<ServerState>,
    listener: Listener,
    local: String,
}

impl Server {
    /// Binds the configured address. For TCP port 0 the resolved port
    /// is available via [`local_addr`](Server::local_addr).
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, bad path, ...).
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let state = Arc::new(ServerState::new(
            config.exec,
            config.store,
            config.checkpoint_dir,
            config.oplog,
            config.stream_chunk_ops,
        ));
        if let Some(path) = config.listen.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            {
                let path = PathBuf::from(path);
                // A previous unclean shutdown leaves the socket file
                // behind; rebinding it is the expected restart path.
                if path.exists() {
                    std::fs::remove_file(&path)?;
                }
                let listener = UnixListener::bind(&path)?;
                listener.set_nonblocking(true)?;
                let local = format!("{UNIX_PREFIX}{}", path.display());
                return Ok(Server {
                    state,
                    listener: Listener::Unix(listener, path),
                    local,
                });
            }
            #[cfg(not(unix))]
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ));
            }
        }
        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?.to_string();
        Ok(Server {
            state,
            listener: Listener::Tcp(listener),
            local,
        })
    }

    /// The bound address, in the same shape `--listen` takes.
    pub fn local_addr(&self) -> &str {
        &self.local
    }

    /// The shared state (tests drive it directly).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the accept loop and the executor until a `shutdown`
    /// request arrives, then drains and returns.
    ///
    /// A failed accept (ECONNABORTED, EMFILE, ...) drops that one
    /// connection: it is counted in `serve.accept_errors`, logged as an
    /// `accept-error` event, and the loop backs off and keeps serving.
    ///
    /// # Errors
    ///
    /// Currently never: accept failures are survived as above.
    pub fn run(self) -> std::io::Result<()> {
        self.serve(Listener::accept)
    }

    /// The loop behind [`run`](Server::run), with the accept step passed
    /// in so tests can make it fail.
    fn serve(
        self,
        mut accept: impl FnMut(&Listener) -> std::io::Result<Option<Box<dyn Conn>>>,
    ) -> std::io::Result<()> {
        timeline::set_track_name("serve accept loop");
        let state = Arc::clone(&self.state);
        let executor = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                timeline::set_track_name("serve executor");
                state.run_executor();
            })
        };
        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        while !state.is_shutting_down() {
            match accept(&self.listener) {
                Ok(Some(stream)) => {
                    state.count("serve.connections");
                    state.oplog.info(
                        "accept",
                        None,
                        vec![(
                            "connections".to_owned(),
                            Value::U64(state.counter_value("serve.connections")),
                        )],
                    );
                    // Reads time out so idle connections notice shutdown;
                    // a client parked between requests must not pin the
                    // server.
                    let _unused = stream.set_read_timeout(Some(Duration::from_millis(200)));
                    let state = Arc::clone(&state);
                    connections.push(thread::spawn(move || handle_connection(&state, stream)));
                }
                Ok(None) => thread::sleep(ACCEPT_POLL),
                Err(e) => {
                    state.count("serve.accept_errors");
                    state.oplog.warn(
                        "accept-error",
                        None,
                        vec![("error".to_owned(), Value::Str(e.to_string()))],
                    );
                    thread::sleep(ACCEPT_ERROR_BACKOFF);
                }
            }
            connections.retain(|handle| !handle.is_finished());
        }
        for handle in connections {
            let _unused = handle.join();
        }
        let _unused = executor.join();
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _unused = std::fs::remove_file(path);
        }
        Ok(())
    }
}

fn write_line(out: &mut dyn Write, value: &Value) -> std::io::Result<()> {
    let mut line = serde_json::to_string(value).expect("response objects serialize");
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// One client session: read request lines, answer each, keep the
/// connection open across errors (protocol hygiene: a bad line gets a
/// structured error, never a dropped connection).
fn handle_connection(state: &Arc<ServerState>, mut stream: Box<dyn Conn>) {
    let Ok(read_half) = stream.try_clone_reader() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        // Reads time out (see `spawn_conn`); a timed-out `read_line`
        // keeps whatever bytes already arrived in `line`, so the next
        // pass resumes the same request rather than corrupting it.
        match reader.read_line(&mut line) {
            Ok(0) => return, // peer hung up
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if state.is_shutting_down() {
                    return;
                }
                // A request still arriving after the size bound will
                // never parse; answer once and drop the connection
                // rather than buffering it to completion.
                if line.len() > MAX_REQUEST_LINE {
                    state.count("serve.errors");
                    state.oplog.warn(
                        "oversized-request",
                        None,
                        vec![("bytes".to_owned(), Value::U64(line.len() as u64))],
                    );
                    let _unused = write_line(&mut stream, &oversized_error().to_value());
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        if line.trim().is_empty() {
            line.clear();
            continue;
        }
        state.count("serve.requests");
        if line.len() > MAX_REQUEST_LINE {
            state.count("serve.errors");
            state.oplog.warn(
                "oversized-request",
                None,
                vec![("bytes".to_owned(), Value::U64(line.len() as u64))],
            );
            if write_line(&mut stream, &oversized_error().to_value()).is_err() {
                return;
            }
            line.clear();
            continue;
        }
        let started = Instant::now();
        let (verb, response) = match parse_request(&line) {
            Ok(request) => (
                verb_name(&request),
                handle_request(state, request, &mut stream),
            ),
            Err(error) => ("invalid", Err(error)),
        };
        state.observe_verb(
            verb,
            started.elapsed().as_micros().min(u64::MAX as u128) as u64,
        );
        let outcome = match response {
            Ok(Some(value)) => write_line(&mut stream, &value),
            Ok(None) => Ok(()), // the handler streamed its own output
            Err(error) => {
                state.count("serve.errors");
                write_line(&mut stream, &error.to_value())
            }
        };
        if outcome.is_err() {
            return;
        }
        line.clear();
    }
}

fn oversized_error() -> ProtocolError {
    ProtocolError::new(
        codes::OVERSIZED_REQUEST,
        format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
    )
}

/// The wire name of a request, for per-verb metrics.
fn verb_name(request: &Request) -> &'static str {
    match request {
        Request::Submit(_) => "submit",
        Request::Status { .. } => "status",
        Request::Results { .. } => "results",
        Request::Watch { .. } => "watch",
        Request::Cancel { .. } => "cancel",
        Request::Health => "health",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    }
}

/// Executes one request. `Ok(None)` means the handler already wrote
/// its response (the `watch` stream).
fn handle_request(
    state: &Arc<ServerState>,
    request: Request,
    out: &mut dyn Write,
) -> Result<Option<Value>, ProtocolError> {
    match request {
        Request::Submit(spec) => {
            if state.is_shutting_down() {
                return Err(ProtocolError::new(
                    codes::SHUTTING_DOWN,
                    "server is shutting down",
                ));
            }
            let plan = spec.resolve()?;
            let job = state.submit(plan, spec);
            Ok(Some(ok_response(vec![
                ("job".to_owned(), Value::Str(job.id.clone())),
                (
                    "fingerprint".to_owned(),
                    Value::Str(job.fingerprint.clone()),
                ),
            ])))
        }
        Request::Status { job: None } => {
            let jobs = state.jobs().iter().map(|j| j.summary()).collect();
            Ok(Some(ok_response(vec![
                ("jobs".to_owned(), Value::Array(jobs)),
                ("server".to_owned(), state.server_status()),
            ])))
        }
        Request::Status { job: Some(id) } => {
            let job = lookup(state, &id)?;
            Ok(Some(ok_response(vec![("job".to_owned(), job.summary())])))
        }
        Request::Results { job: id } => {
            let job = lookup(state, &id)?;
            match job.document() {
                Some(document) => Ok(Some(ok_response(vec![
                    ("job".to_owned(), Value::Str(job.id.clone())),
                    ("document".to_owned(), document),
                ]))),
                None => Err(ProtocolError::new(
                    codes::NOT_FINISHED,
                    format!("job `{id}` is {}, not completed", job.state_name()),
                )),
            }
        }
        Request::Watch { job: id, after } => {
            let job = lookup(state, &id)?;
            stream_watch(state, &job, after, out).map_err(|_| {
                // The watcher hung up; nothing left to answer.
                ProtocolError::new(codes::UNKNOWN_JOB, "watch stream closed")
            })?;
            Ok(None)
        }
        Request::Cancel { job: id } => {
            let job = lookup(state, &id)?;
            job.cancel.cancel();
            state.oplog.info(
                "cancel",
                Some(&job.id),
                vec![("state".to_owned(), Value::Str(job.state_name().to_owned()))],
            );
            Ok(Some(ok_response(vec![
                ("job".to_owned(), Value::Str(job.id.clone())),
                ("state".to_owned(), Value::Str(job.state_name().to_owned())),
            ])))
        }
        Request::Health => {
            let Value::Object(fields) = state.health_value() else {
                unreachable!("health_value returns an object");
            };
            Ok(Some(ok_response(fields)))
        }
        Request::Metrics => {
            let Value::Object(fields) = state.metrics_value() else {
                unreachable!("metrics_value returns an object");
            };
            Ok(Some(ok_response(fields)))
        }
        Request::Shutdown => {
            state.request_shutdown();
            Ok(Some(ok_response(vec![])))
        }
    }
}

fn lookup(state: &Arc<ServerState>, id: &str) -> Result<Arc<JobState>, ProtocolError> {
    state
        .job(id)
        .ok_or_else(|| ProtocolError::new(codes::UNKNOWN_JOB, format!("no job `{id}`")))
}

/// Streams a job's event rows until it goes terminal, then a final
/// `{"ok":true,"event":"done","state":...}` row. Every row is an
/// `ok:true` object so clients can share one line parser, and carries
/// its ring sequence number (`seq`) so a dropped watcher can resume
/// with `{"after": last_seen_seq}` instead of replaying the ring.
///
/// Server shutdown ends the stream too (with the same `done` row):
/// a watch on a job that will never run — queued behind a shutdown —
/// must not pin its connection thread forever.
fn stream_watch(
    state: &Arc<ServerState>,
    job: &Arc<JobState>,
    after: u64,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let mut last_seq = after;
    loop {
        let (rows, seq, terminal) = job.events_after(last_seq);
        last_seq = seq;
        for row in rows {
            let Value::Object(fields) = row else { continue };
            write_line(out, &ok_response(fields))?;
        }
        if terminal || state.is_shutting_down() {
            write_line(
                out,
                &ok_response(vec![
                    ("event".to_owned(), Value::Str("done".to_owned())),
                    ("job".to_owned(), Value::Str(job.id.clone())),
                    ("state".to_owned(), Value::Str(job.state_name().to_owned())),
                ]),
            )?;
            return Ok(());
        }
        job.wait_for_events(last_seq, Duration::from_millis(200));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    use super::*;
    use crate::Client;

    /// A `Write` handle into a shared buffer, so the test can read back
    /// what the oplog emitted.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("log buffer").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_accepts_are_counted_and_the_daemon_keeps_serving() {
        let log = SharedBuf::default();
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_owned(),
            checkpoint_dir: None,
            exec: ExecOptions {
                workers: 1,
                retries: 0,
            },
            store: Arc::new(TraceStore::in_memory()),
            oplog: Arc::new(OpLog::to_writer(
                Box::new(log.clone()),
                cache8t_obs::LogLevel::Info,
            )),
            stream_chunk_ops: None,
        })
        .expect("bind");
        let addr = server.local_addr().to_owned();
        let state = server.state();
        // ECONNABORTED, then EMFILE (24 on Linux and the BSDs), before
        // the real listener is reached.
        let mut faults = VecDeque::from([
            std::io::Error::from(std::io::ErrorKind::ConnectionAborted),
            std::io::Error::from_raw_os_error(24),
        ]);
        let daemon = thread::spawn(move || {
            server.serve(move |listener| match faults.pop_front() {
                Some(fault) => Err(fault),
                None => listener.accept(),
            })
        });

        let mut client =
            Client::connect_with_retry(&addr, Duration::from_secs(10)).expect("daemon is up");
        let health = client.health().expect("health answers");
        assert_eq!(health.get("ok"), Some(&Value::Bool(true)), "{health:?}");
        assert_eq!(state.counter_value("serve.accept_errors"), 2);
        client.shutdown().expect("shutdown");
        daemon
            .join()
            .expect("daemon thread")
            .expect("run returns Ok");

        let text = String::from_utf8(log.0.lock().expect("log buffer").clone()).expect("utf-8");
        let failures = text.lines().filter(|l| l.contains("accept-error")).count();
        assert_eq!(failures, 2, "{text}");
    }
}

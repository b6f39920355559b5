//! The serve wire protocol: newline-delimited JSON, one flat object per
//! line, in both directions.
//!
//! ## Requests (client → server)
//!
//! ```text
//! {"id":1,"kind":"ping"}
//! {"id":2,"kind":"stats"}
//! {"id":3,"kind":"shutdown"}
//! {"id":4,"kind":"optimize","source":"...","target":"x86","strategy":"heuristic",
//!  "full_sweep":false,"pass_stats":false,"objective":"size"}
//! {"id":5,"kind":"search","source":"...","target":"x86","bits":16,
//!  "full_eval":false,"stats":false,"pass_stats":false,"objective":"size"}
//! {"id":6,"kind":"autotune","source":"...","target":"x86","rounds":2,"init":"both",
//!  "full_eval":false,"stats":false,"pass_stats":false,"objective":"pareto"}
//! ```
//!
//! `objective` is `size` | `speed` | `pareto`. A request must carry every
//! field of its kind except the boolean flags, which default to `false`
//! when absent, and the optional `deadline_ms` below. Client and daemon
//! ship in one binary and every encoder writes every field, so nothing
//! decodes older lines: a request line missing a field is answered with
//! `error{id: 0, "bad request: …"}`, and a `stats` event must carry every
//! counter.
//!
//! `id` is chosen by the client and echoed on every event for that
//! request; it only needs to be unique per connection.
//!
//! Each evaluation kind's fields are listed once, beside the encoder:
//! `encode_request` writes that list and [`RequestKind::identity`], the
//! daemon's dedup key, hashes it, so a field added to a kind reaches both.
//!
//! Any evaluation request may carry `"deadline_ms":N` — a queue-time
//! budget. Work still queued when the budget expires is shed with a
//! typed `rejected` event instead of evaluated late. The deadline is
//! **not** part of the dedup identity: two requests differing only in
//! deadline want the same bytes and must share one evaluation.
//!
//! ## Events (server → client)
//!
//! ```text
//! {"id":4,"event":"queued"}
//! {"id":4,"event":"started","deduped":false}
//! {"id":4,"event":"progress","note":"..."}
//! {"id":4,"event":"done","report":"...","evaluated":true}        (+ "module":"...")
//!                                                     (+ "size":N [+ "cycles":M])
//! {"id":4,"event":"error","message":"..."}
//! {"id":4,"event":"rejected","reason":"draining"}
//! {"id":1,"event":"pong"}
//! {"id":2,"event":"stats",...ServerStats fields...}
//! {"id":3,"event":"shutting_down"}
//! ```
//!
//! `done` / `error` / `rejected` is always the final event for an id.
//! `rejected` carries a machine-readable `reason` (`draining` |
//! `deadline` | `cancelled` | `slow_reader` | `line_too_long`) so no
//! request ever disappears silently —
//! shed and cancelled work is still *answered*. `deduped:true`
//! on `started` means the request joined an identical in-flight
//! evaluation; its `done` then carries `evaluated:false` and the same
//! report bytes as the leader's. Progress events fan out to every waiter
//! joined at emission time (late joiners miss earlier lines).

use std::borrow::Cow;

use crate::json::{self, Object, Value};
use optinline_core::evaluation_identity;
use optinline_ir::Measurement;

/// One decoded request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on every event.
    pub id: u64,
    /// What to do.
    pub kind: RequestKind,
    /// Queue-time budget in milliseconds: still queued when it expires →
    /// shed with `rejected{deadline}`. Deliberately excluded from the
    /// dedup identity (it shapes scheduling, never the reply bytes).
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A request with no deadline.
    pub fn new(id: u64, kind: RequestKind) -> Request {
        Request { id, kind, deadline_ms: None }
    }
}

/// The request kinds the daemon understands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Liveness probe.
    Ping,
    /// Server counters snapshot.
    Stats,
    /// Begin graceful drain: stop admitting, finish in-flight, flush.
    Shutdown,
    /// Run the optimization pipeline under an inlining strategy.
    Optimize {
        /// Textual IR of the module.
        source: String,
        /// `x86` | `wasm`.
        target: String,
        /// `never` | `always` | `heuristic` | `trial`.
        strategy: String,
        /// Must be `false`: the whole-module sweep scheduler was removed,
        /// and the CLI's handler refuses `true` with an `error` event. The
        /// field stays on the wire and in the identity so existing request
        /// builders keep compiling and encoding unchanged.
        full_sweep: bool,
        /// Append the per-pass table to the report.
        pass_stats: bool,
        /// `size` | `speed` | `pareto`.
        objective: String,
    },
    /// Optimal-inlining search over the module's residual tree.
    Search {
        /// Textual IR of the module.
        source: String,
        /// `x86` | `wasm`.
        target: String,
        /// Give up beyond `2^bits` unpruned points.
        bits: u32,
        /// Must be `false`: whole-module evaluation was removed, and the
        /// CLI's handler refuses `true` with an `error` event. The field
        /// stays on the wire and in the identity so existing request
        /// builders keep compiling and encoding unchanged.
        full_eval: bool,
        /// Append the evaluator counter line to the report.
        stats: bool,
        /// Append the per-pass / analysis-cache table to the report.
        pass_stats: bool,
        /// `size` | `speed` | `pareto`.
        objective: String,
    },
    /// The paper's local autotuner.
    Autotune {
        /// Textual IR of the module.
        source: String,
        /// `x86` | `wasm`.
        target: String,
        /// Autotuning rounds.
        rounds: u32,
        /// `clean` | `heuristic` | `both`.
        init: String,
        /// Must be `false`, as for [`RequestKind::Search`].
        full_eval: bool,
        /// Append the evaluator counter line to the report.
        stats: bool,
        /// Append the per-pass / analysis-cache table to the report.
        pass_stats: bool,
        /// `size` | `speed` | `pareto`.
        objective: String,
    },
}

impl RequestKind {
    /// The request's 128-bit evaluation identity — the daemon's dedup key.
    /// It hashes the kind's name, then the value of each field the wire
    /// carries for the kind, from the one field list [`encode_request`]
    /// writes: every field that shapes the reply bytes. `id` and
    /// `deadline_ms` are not fields of the kind, so they stay out. Admin
    /// requests have no identity (they are never deduplicated).
    pub fn identity(&self) -> Option<u128> {
        let parts: Vec<Cow<'_, str>> = fields(self).into_iter().map(|(_, f)| f.text()).collect();
        (!parts.is_empty()).then(|| {
            evaluation_identity(std::iter::once(self.name()).chain(parts.iter().map(|p| &**p)))
        })
    }

    /// The wire name of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            RequestKind::Ping => "ping",
            RequestKind::Stats => "stats",
            RequestKind::Shutdown => "shutdown",
            RequestKind::Optimize { .. } => "optimize",
            RequestKind::Search { .. } => "search",
            RequestKind::Autotune { .. } => "autotune",
        }
    }
}

/// The fields of `kind` with their wire names, borrowed, in declaration
/// order: the one list [`encode_request`] writes and
/// [`RequestKind::identity`] hashes. Empty for admin kinds.
fn fields(kind: &RequestKind) -> Vec<(&'static str, Field<'_>)> {
    use Field::{Flag, Int, Str};
    match kind {
        RequestKind::Ping | RequestKind::Stats | RequestKind::Shutdown => Vec::new(),
        RequestKind::Optimize { source, target, strategy, full_sweep, pass_stats, objective } => {
            vec![
                ("source", Str(source)),
                ("target", Str(target)),
                ("strategy", Str(strategy)),
                ("full_sweep", Flag(*full_sweep)),
                ("pass_stats", Flag(*pass_stats)),
                ("objective", Str(objective)),
            ]
        }
        RequestKind::Search { source, target, bits, full_eval, stats, pass_stats, objective } => {
            vec![
                ("source", Str(source)),
                ("target", Str(target)),
                ("bits", Int(*bits)),
                ("full_eval", Flag(*full_eval)),
                ("stats", Flag(*stats)),
                ("pass_stats", Flag(*pass_stats)),
                ("objective", Str(objective)),
            ]
        }
        RequestKind::Autotune {
            source,
            target,
            rounds,
            init,
            full_eval,
            stats,
            pass_stats,
            objective,
        } => vec![
            ("source", Str(source)),
            ("target", Str(target)),
            ("rounds", Int(*rounds)),
            ("init", Str(init)),
            ("full_eval", Flag(*full_eval)),
            ("stats", Flag(*stats)),
            ("pass_stats", Flag(*pass_stats)),
            ("objective", Str(objective)),
        ],
    }
}

/// One request field's value, borrowed from its [`RequestKind`].
#[derive(Clone, Copy)]
enum Field<'a> {
    Str(&'a str),
    Int(u32),
    Flag(bool),
}

impl<'a> Field<'a> {
    /// The value as the identity hashes it: a string as it is, not copied;
    /// a number in decimal; a flag as `1` or `0`.
    fn text(self) -> Cow<'a, str> {
        match self {
            Field::Str(s) => Cow::Borrowed(s),
            Field::Int(n) => Cow::Owned(n.to_string()),
            Field::Flag(b) => Cow::Borrowed(if b { "1" } else { "0" }),
        }
    }

    /// The value as the wire carries it.
    fn value(self) -> Value {
        match self {
            Field::Str(s) => Value::Str(s.to_string()),
            Field::Int(n) => Value::Int(i64::from(n)),
            Field::Flag(b) => Value::Bool(b),
        }
    }
}

/// One event line sent back to a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The request was admitted to the queue.
    Queued {
        /// Request id.
        id: u64,
    },
    /// Evaluation started (`deduped` = joined an identical in-flight one).
    Started {
        /// Request id.
        id: u64,
        /// Whether this request joined an in-flight evaluation.
        deduped: bool,
    },
    /// A progress line from the evaluation.
    Progress {
        /// Request id.
        id: u64,
        /// Free-form progress text.
        note: String,
    },
    /// Terminal success.
    Done {
        /// Request id.
        id: u64,
        /// The full report, byte-identical to the in-process command.
        report: String,
        /// The optimized module text (optimize requests only).
        module: Option<String>,
        /// The winning measurement, when the evaluation produced one:
        /// `size` always set, `cycles` only under a cycles-aware
        /// objective with something executable to interpret.
        measurement: Option<Measurement>,
        /// Whether this request's evaluation actually ran here (`false`
        /// for dedup joiners served by a leader's result).
        evaluated: bool,
    },
    /// Terminal failure.
    Error {
        /// Request id (0 when the request line itself was unreadable).
        id: u64,
        /// What went wrong.
        message: String,
    },
    /// Terminal refusal: the request was not (fully) evaluated and never
    /// will be. Typed so shed work is observable, never silent.
    Rejected {
        /// Request id.
        id: u64,
        /// Machine-readable reason: `draining` (server refusing new
        /// work), `deadline` (queue-time budget expired before a slot
        /// freed), `cancelled` (every waiter disconnected and the
        /// evaluation was stopped at a checkpoint), `slow_reader` (the
        /// client fell a full outbound buffer behind), or `line_too_long`
        /// (id 0: a request line exceeded the daemon's cap). The last two
        /// are farewells: the daemon then closes the connection.
        reason: String,
    },
    /// Reply to `ping`.
    Pong {
        /// Request id.
        id: u64,
    },
    /// Reply to `stats`.
    Stats {
        /// Request id.
        id: u64,
        /// Server counters snapshot.
        stats: ServerStats,
    },
    /// Acknowledgement of `shutdown`; drain begins after it is sent.
    ShuttingDown {
        /// Request id.
        id: u64,
    },
}

impl Event {
    /// The id of the request this event answers (0 when the request line
    /// itself could not be read).
    pub fn id(&self) -> u64 {
        match self {
            Event::Queued { id }
            | Event::Started { id, .. }
            | Event::Progress { id, .. }
            | Event::Done { id, .. }
            | Event::Error { id, .. }
            | Event::Rejected { id, .. }
            | Event::Pong { id }
            | Event::Stats { id, .. }
            | Event::ShuttingDown { id } => *id,
        }
    }
}

/// Server-side counters, exposed over the `stats` request. Dedup is
/// observable here: N identical concurrent requests show as
/// `evaluations + dedup_joined = N` with `evaluations = 1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Evaluation requests admitted to the queue.
    pub accepted: u64,
    /// Evaluation requests refused because the server was draining.
    pub rejected: u64,
    /// Handler invocations (dedup leaders only).
    pub evaluations: u64,
    /// Requests served by joining an identical in-flight evaluation.
    pub dedup_joined: u64,
    /// Terminal `done` events sent.
    pub completed: u64,
    /// Terminal `error` events sent.
    pub errors: u64,
    /// Queued requests shed with `rejected{deadline}` because their
    /// queue-time budget expired before a slot freed.
    pub shed_deadline: u64,
    /// Requests terminated by waiter disconnection: queued jobs dropped
    /// when their connection died, plus evaluations stopped at a
    /// cancellation checkpoint.
    pub cancelled: u64,
    /// Requests waiting in the admission queue right now.
    pub queue_depth: u64,
    /// Evaluation slots held right now: leader evaluations executing, plus
    /// popped jobs whose dedup check has not yet run (a joiner gives its
    /// slot back there).
    pub in_flight: u64,
    /// Connections the poll loop holds open right now.
    pub open_connections: u64,
    /// Most connections ever open at once over this daemon's lifetime.
    pub peak_connections: u64,
    /// Connections dropped because their bounded outbound buffer
    /// overflowed (a reader too slow for its own event stream).
    pub slow_reader_disconnects: u64,
    /// Times the poll loop woke up (readiness, waker, or timeout) — the
    /// event-loop heartbeat, useful for spotting spin regressions.
    pub poll_wakeups: u64,
}

impl ServerStats {
    /// Accepted requests that have ended, `completed + errors +
    /// shed_deadline + cancelled`: `accepted` once `queue_depth` and
    /// `in_flight` read 0, and never more than `accepted - queue_depth`.
    pub fn terminal(&self) -> u64 {
        self.completed + self.errors + self.shed_deadline + self.cancelled
    }
}

/// Each [`ServerStats`] counter with its wire name, in declaration order:
/// the one list [`encode_event`] writes and [`decode_event`] reads.
fn server_counters(s: &mut ServerStats) -> [(&'static str, &mut u64); 14] {
    [
        ("accepted", &mut s.accepted),
        ("rejected", &mut s.rejected),
        ("evaluations", &mut s.evaluations),
        ("dedup_joined", &mut s.dedup_joined),
        ("completed", &mut s.completed),
        ("errors", &mut s.errors),
        ("shed_deadline", &mut s.shed_deadline),
        ("cancelled", &mut s.cancelled),
        ("queue_depth", &mut s.queue_depth),
        ("in_flight", &mut s.in_flight),
        ("open_connections", &mut s.open_connections),
        ("peak_connections", &mut s.peak_connections),
        ("slow_reader_disconnects", &mut s.slow_reader_disconnects),
        ("poll_wakeups", &mut s.poll_wakeups),
    ]
}

fn get_u64(obj: &Object, key: &str) -> Result<u64, String> {
    let v = obj.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
    let n = v.as_int().ok_or_else(|| format!("field {key:?} must be an integer"))?;
    u64::try_from(n).map_err(|_| format!("field {key:?} must be non-negative"))
}

fn get_u32(obj: &Object, key: &str) -> Result<u32, String> {
    u32::try_from(get_u64(obj, key)?).map_err(|_| format!("field {key:?} is out of range"))
}

fn get_str(obj: &Object, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Optional `size` (+ optional `cycles`) fields on a `done` event;
/// `cycles` without `size` is malformed.
fn decode_measurement(obj: &Object) -> Result<Option<Measurement>, String> {
    let Some(_) = obj.get("size") else {
        return match obj.get("cycles") {
            Some(_) => Err("field \"cycles\" requires field \"size\"".to_string()),
            None => Ok(None),
        };
    };
    let size = get_u64(obj, "size")?;
    Ok(Some(match obj.get("cycles") {
        Some(_) => Measurement::with_cycles(size, get_u64(obj, "cycles")?),
        None => Measurement::size_only(size),
    }))
}

/// Absent boolean fields default to `false`, so clients can omit them.
fn get_flag(obj: &Object, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| format!("field {key:?} must be a boolean")),
    }
}

/// Encodes a request as one line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let mut obj = Object::new();
    obj.insert("id".into(), Value::Int(req.id as i64));
    obj.insert("kind".into(), Value::Str(req.kind.name().into()));
    if let Some(deadline) = req.deadline_ms {
        obj.insert("deadline_ms".into(), Value::Int(deadline as i64));
    }
    for (name, field) in fields(&req.kind) {
        obj.insert(name.into(), field.value());
    }
    json::encode(&obj)
}

/// Decodes one request line.
pub fn decode_request(line: &str) -> Result<Request, String> {
    let obj = json::decode(line)?;
    let id = get_u64(&obj, "id")?;
    let kind = match get_str(&obj, "kind")?.as_str() {
        "ping" => RequestKind::Ping,
        "stats" => RequestKind::Stats,
        "shutdown" => RequestKind::Shutdown,
        "optimize" => RequestKind::Optimize {
            source: get_str(&obj, "source")?,
            target: get_str(&obj, "target")?,
            strategy: get_str(&obj, "strategy")?,
            full_sweep: get_flag(&obj, "full_sweep")?,
            pass_stats: get_flag(&obj, "pass_stats")?,
            objective: get_str(&obj, "objective")?,
        },
        "search" => RequestKind::Search {
            source: get_str(&obj, "source")?,
            target: get_str(&obj, "target")?,
            bits: get_u32(&obj, "bits")?,
            full_eval: get_flag(&obj, "full_eval")?,
            stats: get_flag(&obj, "stats")?,
            pass_stats: get_flag(&obj, "pass_stats")?,
            objective: get_str(&obj, "objective")?,
        },
        "autotune" => RequestKind::Autotune {
            source: get_str(&obj, "source")?,
            target: get_str(&obj, "target")?,
            rounds: get_u32(&obj, "rounds")?,
            init: get_str(&obj, "init")?,
            full_eval: get_flag(&obj, "full_eval")?,
            stats: get_flag(&obj, "stats")?,
            pass_stats: get_flag(&obj, "pass_stats")?,
            objective: get_str(&obj, "objective")?,
        },
        other => return Err(format!("unknown request kind {other:?}")),
    };
    let deadline_ms = match obj.get("deadline_ms") {
        None => None,
        Some(_) => Some(get_u64(&obj, "deadline_ms")?),
    };
    Ok(Request { id, kind, deadline_ms })
}

/// Encodes an event as one line (no trailing newline).
pub fn encode_event(event: &Event) -> String {
    let mut obj = Object::new();
    let name = match event {
        Event::Queued { .. } => "queued",
        Event::Started { deduped, .. } => {
            obj.insert("deduped".into(), Value::Bool(*deduped));
            "started"
        }
        Event::Progress { note, .. } => {
            obj.insert("note".into(), Value::Str(note.clone()));
            "progress"
        }
        Event::Done { report, module, measurement, evaluated, .. } => {
            obj.insert("report".into(), Value::Str(report.clone()));
            if let Some(m) = module {
                obj.insert("module".into(), Value::Str(m.clone()));
            }
            if let Some(m) = measurement {
                obj.insert("size".into(), Value::Int(m.size as i64));
                if let Some(cycles) = m.cycles {
                    obj.insert("cycles".into(), Value::Int(cycles as i64));
                }
            }
            obj.insert("evaluated".into(), Value::Bool(*evaluated));
            "done"
        }
        Event::Error { message, .. } => {
            obj.insert("message".into(), Value::Str(message.clone()));
            "error"
        }
        Event::Rejected { reason, .. } => {
            obj.insert("reason".into(), Value::Str(reason.clone()));
            "rejected"
        }
        Event::Pong { .. } => "pong",
        Event::Stats { stats, .. } => {
            let mut stats = *stats;
            for (name, n) in server_counters(&mut stats) {
                obj.insert(name.into(), Value::Int(*n as i64));
            }
            "stats"
        }
        Event::ShuttingDown { .. } => "shutting_down",
    };
    obj.insert("id".into(), Value::Int(event.id() as i64));
    obj.insert("event".into(), Value::Str(name.into()));
    json::encode(&obj)
}

/// Decodes one event line.
pub fn decode_event(line: &str) -> Result<Event, String> {
    let obj = json::decode(line)?;
    let id = get_u64(&obj, "id")?;
    match get_str(&obj, "event")?.as_str() {
        "queued" => Ok(Event::Queued { id }),
        "started" => Ok(Event::Started { id, deduped: get_flag(&obj, "deduped")? }),
        "progress" => Ok(Event::Progress { id, note: get_str(&obj, "note")? }),
        "done" => Ok(Event::Done {
            id,
            report: get_str(&obj, "report")?,
            module: obj.get("module").and_then(Value::as_str).map(str::to_string),
            measurement: decode_measurement(&obj)?,
            evaluated: get_flag(&obj, "evaluated")?,
        }),
        "error" => Ok(Event::Error { id, message: get_str(&obj, "message")? }),
        "rejected" => Ok(Event::Rejected { id, reason: get_str(&obj, "reason")? }),
        "pong" => Ok(Event::Pong { id }),
        "stats" => {
            let mut stats = ServerStats::default();
            for (name, n) in server_counters(&mut stats) {
                *n = get_u64(&obj, name)?;
            }
            Ok(Event::Stats { id, stats })
        }
        "shutting_down" => Ok(Event::ShuttingDown { id }),
        other => Err(format!("unknown event {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(source: &str) -> RequestKind {
        RequestKind::Search {
            source: source.into(),
            target: "x86".into(),
            bits: 16,
            full_eval: false,
            stats: true,
            pass_stats: false,
            objective: "size".into(),
        }
    }

    #[test]
    fn requests_round_trip() {
        let kinds = [
            RequestKind::Ping,
            RequestKind::Stats,
            RequestKind::Shutdown,
            search("module \"m\"\nfunc f() {}\n"),
            RequestKind::Optimize {
                source: "m".into(),
                target: "wasm".into(),
                strategy: "trial".into(),
                full_sweep: true,
                pass_stats: true,
                objective: "speed".into(),
            },
            RequestKind::Autotune {
                source: "m".into(),
                target: "x86".into(),
                rounds: 3,
                init: "both".into(),
                full_eval: true,
                stats: false,
                pass_stats: true,
                objective: "pareto".into(),
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let mut req = Request::new(i as u64 + 1, kind);
            if i % 2 == 0 {
                req.deadline_ms = Some(1500);
            }
            let line = encode_request(&req);
            assert!(!line.contains('\n'), "NDJSON framing holds despite newlines in source");
            assert_eq!(decode_request(&line).unwrap(), req);
        }
    }

    /// The exact line each evaluation kind encodes to, with and without a
    /// deadline: keys sorted, every field present, the source escaped.
    #[test]
    fn encoded_request_lines_are_pinned() {
        let source = "module \"m\"\nfunc f() {}\n";
        let optimize = RequestKind::Optimize {
            source: source.into(),
            target: "wasm".into(),
            strategy: "trial".into(),
            full_sweep: false,
            pass_stats: true,
            objective: "speed".into(),
        };
        let autotune = RequestKind::Autotune {
            source: source.into(),
            target: "x86".into(),
            rounds: 3,
            init: "both".into(),
            full_eval: true,
            stats: false,
            pass_stats: true,
            objective: "pareto".into(),
        };
        let cases = [
            (
                Request::new(4, optimize.clone()),
                r#"{"full_sweep":false,"id":4,"kind":"optimize","objective":"speed","pass_stats":true,"source":"module \"m\"\nfunc f() {}\n","strategy":"trial","target":"wasm"}"#,
            ),
            (
                Request { id: 5, kind: optimize, deadline_ms: Some(1500) },
                r#"{"deadline_ms":1500,"full_sweep":false,"id":5,"kind":"optimize","objective":"speed","pass_stats":true,"source":"module \"m\"\nfunc f() {}\n","strategy":"trial","target":"wasm"}"#,
            ),
            (
                Request::new(6, search(source)),
                r#"{"bits":16,"full_eval":false,"id":6,"kind":"search","objective":"size","pass_stats":false,"source":"module \"m\"\nfunc f() {}\n","stats":true,"target":"x86"}"#,
            ),
            (
                Request { id: 7, kind: search(source), deadline_ms: Some(250) },
                r#"{"bits":16,"deadline_ms":250,"full_eval":false,"id":7,"kind":"search","objective":"size","pass_stats":false,"source":"module \"m\"\nfunc f() {}\n","stats":true,"target":"x86"}"#,
            ),
            (
                Request::new(8, autotune.clone()),
                r#"{"full_eval":true,"id":8,"init":"both","kind":"autotune","objective":"pareto","pass_stats":true,"rounds":3,"source":"module \"m\"\nfunc f() {}\n","stats":false,"target":"x86"}"#,
            ),
            (
                Request { id: 9, kind: autotune, deadline_ms: Some(9000) },
                r#"{"deadline_ms":9000,"full_eval":true,"id":9,"init":"both","kind":"autotune","objective":"pareto","pass_stats":true,"rounds":3,"source":"module \"m\"\nfunc f() {}\n","stats":false,"target":"x86"}"#,
            ),
        ];
        for (req, line) in cases {
            assert_eq!(encode_request(&req), line);
        }
    }

    #[test]
    fn deadline_is_optional_on_the_wire_and_absent_from_identity() {
        let line = r#"{"id":5,"kind":"ping"}"#;
        assert_eq!(decode_request(line).unwrap().deadline_ms, None, "the deadline may be absent");
        let quick = Request { id: 1, kind: search("m"), deadline_ms: Some(10) };
        let patient = Request { id: 2, kind: search("m"), deadline_ms: None };
        assert_eq!(
            quick.kind.identity(),
            patient.kind.identity(),
            "deadline shapes scheduling, not reply bytes, so it must dedup across values"
        );
    }

    #[test]
    fn events_round_trip() {
        let events = [
            Event::Queued { id: 9 },
            Event::Started { id: 9, deduped: true },
            Event::Progress { id: 9, note: "evaluating 128 points".into() },
            Event::Done {
                id: 9,
                report: "optimal size: 42\n".into(),
                module: Some("module \"m\"\n".into()),
                measurement: Some(Measurement::with_cycles(42, 310)),
                evaluated: false,
            },
            Event::Done {
                id: 9,
                report: "r".into(),
                module: None,
                measurement: Some(Measurement::size_only(7)),
                evaluated: true,
            },
            Event::Done {
                id: 9,
                report: "r".into(),
                module: None,
                measurement: None,
                evaluated: true,
            },
            Event::Error { id: 0, message: "bad request".into() },
            Event::Rejected { id: 11, reason: "deadline".into() },
            Event::Rejected { id: 12, reason: "draining".into() },
            Event::Pong { id: 1 },
            Event::Stats {
                id: 2,
                stats: ServerStats {
                    accepted: 32,
                    rejected: 1,
                    evaluations: 1,
                    dedup_joined: 31,
                    completed: 28,
                    errors: 1,
                    shed_deadline: 2,
                    cancelled: 2,
                    queue_depth: 0,
                    in_flight: 0,
                    open_connections: 3,
                    peak_connections: 32,
                    slow_reader_disconnects: 1,
                    poll_wakeups: 97,
                },
            },
            Event::ShuttingDown { id: 3 },
        ];
        for event in events {
            let line = encode_event(&event);
            assert_eq!(decode_event(&line).unwrap(), event);
        }
    }

    /// The exact `stats` line: every counter under its wire name, keys
    /// sorted, each value distinct so a swapped name shows.
    #[test]
    fn encoded_stats_line_is_pinned() {
        let stats = ServerStats {
            accepted: 101,
            rejected: 102,
            evaluations: 103,
            dedup_joined: 104,
            completed: 105,
            errors: 106,
            shed_deadline: 107,
            cancelled: 108,
            queue_depth: 109,
            in_flight: 110,
            open_connections: 111,
            peak_connections: 112,
            slow_reader_disconnects: 113,
            poll_wakeups: 114,
        };
        assert_eq!(
            encode_event(&Event::Stats { id: 7, stats }),
            r#"{"accepted":101,"cancelled":108,"completed":105,"dedup_joined":104,"errors":106,"evaluations":103,"event":"stats","id":7,"in_flight":110,"open_connections":111,"peak_connections":112,"poll_wakeups":114,"queue_depth":109,"rejected":102,"shed_deadline":107,"slow_reader_disconnects":113}"#
        );
    }

    #[test]
    fn identity_covers_every_reply_shaping_field() {
        let base = search("m");
        assert_eq!(base.identity(), search("m").identity(), "identical requests share identity");
        let mut variants = vec![search("other")];
        if let RequestKind::Search { source, target, bits, full_eval, pass_stats, .. } = &base {
            variants.push(RequestKind::Search {
                source: source.clone(),
                target: target.clone(),
                bits: *bits,
                full_eval: *full_eval,
                stats: false, // differs from base
                pass_stats: *pass_stats,
                objective: "size".into(),
            });
            variants.push(RequestKind::Search {
                source: source.clone(),
                target: "wasm".into(),
                bits: *bits,
                full_eval: *full_eval,
                stats: true,
                pass_stats: *pass_stats,
                objective: "size".into(),
            });
            variants.push(RequestKind::Search {
                source: source.clone(),
                target: target.clone(),
                bits: bits + 1,
                full_eval: *full_eval,
                stats: true,
                pass_stats: *pass_stats,
                objective: "size".into(),
            });
            variants.push(RequestKind::Search {
                source: source.clone(),
                target: target.clone(),
                bits: *bits,
                full_eval: *full_eval,
                stats: true,
                pass_stats: *pass_stats,
                objective: "pareto".into(), // differs from base
            });
        }
        for v in variants {
            assert_ne!(base.identity(), v.identity(), "{v:?} must not collide with {base:?}");
        }
        assert_eq!(RequestKind::Ping.identity(), None, "admin requests are never deduplicated");
    }

    #[test]
    fn kind_and_identity_disambiguate_equal_fields() {
        // Same field values under different kinds must never collide.
        let o = RequestKind::Optimize {
            source: "m".into(),
            target: "x86".into(),
            strategy: "heuristic".into(),
            full_sweep: false,
            pass_stats: false,
            objective: "size".into(),
        };
        let s = search("m");
        assert_ne!(o.identity(), s.identity());
    }
}

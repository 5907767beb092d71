//! The line-delimited JSON wire protocol of the compute service.
//!
//! Every request and response is exactly one JSON object on one line. The
//! vocabulary maps directly onto the macro's ISA (the paper's Table I) plus
//! the session-level verbs a multi-client service needs.
//!
//! # Requests
//!
//! | `op` | fields | meaning |
//! |---|---|---|
//! | `ping` | — | liveness probe |
//! | `dot` | `precision`, `x`, `w` | in-memory dot product `Σ x[i]·w[i]` |
//! | `add` / `sub` / `mult` | `precision`, `a`, `b` | lane-wise arithmetic |
//! | `and` / `or` / `xor` / `nand` / `nor` / `xnor` | `precision`, `a`, `b` | lane-wise logic |
//! | `load_model` | `precision`, `prototypes` | store quantized class prototypes in the session |
//! | `classify` | `x` | nearest-prototype class of a quantized sample |
//! | `exec_program` | `instrs` | run a whole [`Program`](crate::prog::Program) in one round trip |
//! | `store_program` | `instrs`, `name?` | validate + compile once into the session's stored-program registry |
//! | `run_stored` | `pid`\|`name`, `inputs?` | run a stored program, optionally binding fresh write values |
//! | `list_programs` | — | the session's stored-program registry with per-entry run history |
//! | `delete_program` | `pid`\|`name` | drop one stored program from the registry |
//! | `lint_program` | `instrs` | static analysis only: answer the program's [`Diagnostic`]s without executing |
//! | `open_session` | — | mint a durable session keyed by an unguessable token |
//! | `resume_session` | `token` | re-attach a later connection to a durable session |
//! | `stats` | — | the session's activity account so far |
//! | `shutdown` | — | ask the server to drain and stop |
//!
//! `precision` is the lane width in bits (2/4/8/16/32); vectors are arrays
//! of non-negative integers that must fit the precision (`mult` operands
//! occupy `2P`-bit product lanes and results may use all 64 bits at P32).
//! Every request carries a client-chosen `id` echoed in its response.
//!
//! An `exec_program` request carries one JSON object per instruction, each
//! tagged with its name under `"i"` and naming virtual row registers by
//! index (see [`crate::prog`]):
//!
//! ```text
//! {"i":"write","dst":0,"precision":8,"values":[1,2]}
//! {"i":"write_mult","dst":1,"precision":8,"values":[3,4]}
//! {"i":"read","src":0,"precision":8,"n":2}
//! {"i":"read_products","src":2,"precision":8,"n":2}
//! {"i":"and","a":0,"b":1,"dst":2}          (or/xor/nand/nor/xnor)
//! {"i":"not","src":0,"dst":1}              (copy likewise)
//! {"i":"shl","src":0,"dst":1,"precision":8}
//! {"i":"add","a":0,"b":1,"dst":2,"precision":8}   (sub/add_shift/mult likewise)
//! {"i":"reduce_add","srcs":[0,1,2],"dst":3,"precision":8}
//! ```
//!
//! # Responses
//!
//! `{"id":N,"ok":true,"kind":K,"result":…}` on success, with `kind` one of
//! `pong`, `scalar`, `words`, `class`, `ok`, `stats`, `program`, `stored`,
//! `diagnostics`, `session`, `programs`; `{"id":N,"ok":false,"error":"…"}`
//! on failure. A
//! response's `id` matches its request; per connection, responses arrive
//! in request order.
//!
//! A failure may carry a machine-readable class beyond the human-readable
//! `error` string ([`ErrorBody`]): `"kind"` is one of `limit_exceeded`
//! (plus `"limit"` naming which per-session limit — `cycle_rate`,
//! `energy_rate`, `inflight`, `program_length`, `stored_programs`),
//! `overloaded` (the server is shedding load), `deadline_exceeded`
//! (the request's `timeout_ms` expired in queue or mid-execution),
//! `invalid_program` (a submitted instruction stream failed validation;
//! `"code"` carries the stable [`ProgError`] code such as `E002` and
//! `"index"` the offending instruction's position when one is known),
//! `session_expired` (the presented session token was valid once but its
//! session has been garbage-collected past the server's TTL), or
//! `bad_token` (the presented token never named a session here — forged,
//! truncated, or from another server). `limit_exceeded` and `overloaded`
//! errors may add `"retry_after_ms"`, a hint for how long to back off
//! before retrying. A failure without a `"kind"` field is a generic
//! request error (bad argument, ISA error, unknown stored id, …) —
//! retrying it unchanged will fail again.
//!
//! Any request may carry an optional `timeout_ms` field: a deadline,
//! relative to the server reading the line, after which the server may
//! answer `deadline_exceeded` instead of executing.
//!
//! # Sessions, tokens and idempotent retries
//!
//! By default a connection is an *ephemeral* session: its state dies with
//! the socket. `open_session` upgrades it to a durable one, answering
//! `{"kind":"session","result":{"token":T,…}}` with an unguessable token.
//! After a disconnect, a new connection presents the token via
//! `resume_session` and gets the whole session back — model, stored
//! programs, accounting totals, in-window rate budgets. At most one
//! connection is attached to a token at a time; a second `resume_session`
//! of a live token is refused (generic error with a `retry_after_ms`
//! hint) until the holder detaches. Detached sessions linger for the
//! server's TTL, then are swept; resuming after that answers
//! `session_expired`, while a token the server never minted answers
//! `bad_token`.
//!
//! Requests on a durable session may carry a `seq` field — a strictly
//! increasing per-session sequence number. The server remembers the last
//! `seq` it executed (plus a bounded window of recent responses), so a
//! client that resends a request after a mid-request drop gets the
//! original response replayed instead of a second execution: seq-stamped
//! ops are retry-safe end to end, never double-executed or double-billed.
//!
//! A `program` result reports the outputs of the program's read
//! instructions plus exact per-instruction accounting:
//! `{"outputs":[[…]…],"cycles":[…],"energy_fj":[…]}` (one `cycles` /
//! `energy_fj` entry per submitted instruction; an instruction fused away
//! by the lowering pass bills 0).
//!
//! A `store_program` request validates, lowers and compiles its
//! instruction stream **once** against the server's macro configuration
//! and answers `{"kind":"stored","result":{"pid":P,"cycles":C,"writes":W}}`
//! with a session-local id. When the linter has something to say the
//! result adds a `"diagnostics"` array (one
//! `{"code","severity","start","end","message"}` object per finding, see
//! [`Diagnostic`]); a `lint_program` request answers the same array under
//! `{"kind":"diagnostics","result":[…]}` without storing or executing
//! anything. Subsequent `run_stored` requests
//! (`{"op":"run_stored","pid":P,"inputs":[[…],null,…]}`) skip parsing the
//! instruction stream, validation and lowering entirely and answer with
//! the same `program` result shape; `inputs` optionally rebinds the
//! program's write values — one entry per `write`/`write_mult` in
//! submitted order, `null` keeping the stored values, each bound vector
//! exactly as long as the stored one. Stored ids are private to their
//! session; on an ephemeral session they die with the connection, on a
//! durable one they survive reconnects until deleted or the session is
//! swept.
//!
//! `store_program` may also carry a `"name"`: a session-unique registry
//! name under which `run_stored` and `delete_program` can address the
//! entry instead of by pid. `list_programs` answers the registry under
//! `{"kind":"programs","result":[…]}`, one object per entry with its
//! compile-time facts plus run history: `{"pid","name"?,"cycles",
//! "writes","runs","errors","total_cycles","total_energy_fj",
//! "last_status"?,"last_error"?}` (`last_status` is `"success"` or
//! `"error"`, absent until the first run).
//!
//! # Examples
//!
//! ```
//! use bpimc_core::wire::{Request, RequestBody, Response, ResponseBody};
//! use bpimc_core::Precision;
//!
//! let req = Request {
//!     id: 7,
//!     timeout_ms: None,
//!     seq: None,
//!     body: RequestBody::Dot {
//!         precision: Precision::P8,
//!         x: vec![1, 2, 3],
//!         w: vec![4, 5, 6],
//!     },
//! };
//! let line = req.to_json_line();
//! assert_eq!(Request::parse(&line).unwrap(), req);
//!
//! let resp = Response {
//!     id: 7,
//!     body: ResponseBody::Scalar(32),
//! };
//! assert_eq!(Response::parse(&resp.to_json_line()).unwrap(), resp);
//! ```

use crate::activity::SessionActivity;
use crate::json::{FieldError, FromJson, Json, ObjBuilder, ToJson};
use crate::prog::analysis::{Diagnostic, Severity};
use crate::prog::{Instr, ProgError, Reg};
use bpimc_periph::{LogicOp, Precision};
use std::fmt;

/// Lane-wise operations addressable over the wire (a subset of the ISA's
/// [`OpKind`](crate::OpKind) that takes two packed operand vectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOp {
    /// Lane-wise addition (wrapping at the lane width).
    Add,
    /// Lane-wise subtraction (two's complement, wrapping).
    Sub,
    /// Lane-wise multiplication into `2P`-bit product lanes.
    Mult,
    /// Lane-wise bitwise logic.
    Logic(LogicOp),
}

impl LaneOp {
    /// The wire name of this op.
    pub fn name(&self) -> &'static str {
        match self {
            LaneOp::Add => "add",
            LaneOp::Sub => "sub",
            LaneOp::Mult => "mult",
            LaneOp::Logic(LogicOp::And) => "and",
            LaneOp::Logic(LogicOp::Or) => "or",
            LaneOp::Logic(LogicOp::Xor) => "xor",
            LaneOp::Logic(LogicOp::Nand) => "nand",
            LaneOp::Logic(LogicOp::Nor) => "nor",
            LaneOp::Logic(LogicOp::Xnor) => "xnor",
        }
    }

    /// The op for a wire name, if any.
    pub fn from_name(name: &str) -> Option<LaneOp> {
        Some(match name {
            "add" => LaneOp::Add,
            "sub" => LaneOp::Sub,
            "mult" => LaneOp::Mult,
            "and" => LaneOp::Logic(LogicOp::And),
            "or" => LaneOp::Logic(LogicOp::Or),
            "xor" => LaneOp::Logic(LogicOp::Xor),
            "nand" => LaneOp::Logic(LogicOp::Nand),
            "nor" => LaneOp::Logic(LogicOp::Nor),
            "xnor" => LaneOp::Logic(LogicOp::Xnor),
            _ => return None,
        })
    }
}

/// How `run_stored` / `delete_program` address a stored program: by the
/// session-local id `store_program` returned, or by the registry name it
/// was stored under. On the wire exactly one of `"pid"` / `"name"` is
/// present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredTarget {
    /// The id `store_program` returned.
    Pid(u64),
    /// The registry name the program was stored under.
    Name(String),
}

impl fmt::Display for StoredTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoredTarget::Pid(pid) => write!(f, "stored program {pid}"),
            StoredTarget::Name(name) => write!(f, "stored program '{name}'"),
        }
    }
}

/// What a request asks the service to do.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness probe.
    Ping,
    /// In-memory dot product of two equal-length quantized vectors.
    Dot {
        /// Lane width of the operands.
        precision: Precision,
        /// First vector.
        x: Vec<u64>,
        /// Second vector.
        w: Vec<u64>,
    },
    /// A lane-wise two-operand op over packed vectors.
    Lanes {
        /// Which op.
        op: LaneOp,
        /// Lane width.
        precision: Precision,
        /// First operand vector.
        a: Vec<u64>,
        /// Second operand vector.
        b: Vec<u64>,
    },
    /// Stores quantized class prototypes in the session for `classify`.
    LoadModel {
        /// Lane width the prototypes are quantized to.
        precision: Precision,
        /// One quantized weight vector per class.
        prototypes: Vec<Vec<u64>>,
    },
    /// Classifies one quantized sample against the session's model.
    Classify {
        /// The quantized sample.
        x: Vec<u64>,
    },
    /// Runs a whole typed instruction stream ([`crate::prog::Program`])
    /// in one round trip.
    ExecProgram {
        /// The program's instructions, in order.
        instrs: Vec<Instr>,
    },
    /// Validates and compiles a program into the session's stored-program
    /// registry — the validate-once half of the stored-program fast path.
    StoreProgram {
        /// The program's instructions, in order.
        instrs: Vec<Instr>,
        /// Optional session-unique registry name; `run_stored` and
        /// `delete_program` can then address the entry by name.
        name: Option<String>,
    },
    /// Runs a stored program by id or registry name, optionally binding
    /// fresh values to its `write`/`write_mult` instructions.
    RunStored {
        /// Which stored program to run.
        target: StoredTarget,
        /// One entry per write instruction in submitted order (`None` /
        /// JSON `null` keeps the stored values); empty runs all-stored.
        inputs: Vec<Option<Vec<u64>>>,
    },
    /// Lists the session's stored-program registry, one [`ProgramEntry`]
    /// per stored program with compile-time facts and run history.
    ListPrograms,
    /// Deletes one stored program from the session's registry.
    DeleteProgram {
        /// Which stored program to delete.
        target: StoredTarget,
    },
    /// Mints a durable session keyed by an unguessable token; the reply
    /// is `kind:"session"` carrying the token to present on resume.
    OpenSession,
    /// Re-attaches this connection to the durable session a token names,
    /// restoring its model, stored programs, accounting and rate budgets.
    ResumeSession {
        /// The token `open_session` returned.
        token: String,
    },
    /// Statically analyzes a program — validation plus lint — and answers
    /// its diagnostics without storing or executing anything.
    LintProgram {
        /// The program's instructions, in order.
        instrs: Vec<Instr>,
    },
    /// The session's activity account (state *before* this request).
    Stats,
    /// Asks the server to finish queued work and shut down.
    Shutdown,
}

/// One request: a client-chosen id plus the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the response.
    pub id: u64,
    /// Optional deadline, milliseconds from the server reading the line.
    /// Past it the server may answer `deadline_exceeded` instead of
    /// executing.
    pub timeout_ms: Option<u64>,
    /// Optional per-session sequence number (strictly increasing). On a
    /// durable session the server executes each `seq` at most once and
    /// replays the recorded response for a resent one, making the request
    /// retry-safe across reconnects. Ignored on ephemeral sessions.
    pub seq: Option<u64>,
    /// What to do.
    pub body: RequestBody,
}

/// What a successful request returns.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// `ping` reply.
    Pong,
    /// A scalar result (`dot`).
    Scalar(u64),
    /// A vector result (lane-wise ops).
    Words(Vec<u64>),
    /// A predicted class index (`classify`).
    Class(usize),
    /// Acknowledgement with no payload (`load_model`, `shutdown`).
    Ok,
    /// The session's account (`stats`).
    Stats(SessionActivity),
    /// An executed program's outputs and per-instruction accounting
    /// (`exec_program`).
    Program(ProgramReport),
    /// A stored program's id and compile-time facts (`store_program`).
    Stored(StoredMeta),
    /// A linted program's findings (`lint_program`).
    Diagnostics(Vec<Diagnostic>),
    /// A durable session's token and restored state facts
    /// (`open_session`, `resume_session`).
    Session(SessionInfo),
    /// The session's stored-program registry (`list_programs`).
    Programs(Vec<ProgramEntry>),
    /// The request failed; message plus optional machine-readable class.
    Error(ErrorBody),
}

/// What `open_session` / `resume_session` return: the durable session's
/// token plus a snapshot of the state the token now commands.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    /// The unguessable token that names the session; present it via
    /// `resume_session` on a later connection to get the session back.
    pub token: String,
    /// The session's accounting totals at this moment — fresh zeros from
    /// `open_session`, the restored account from `resume_session`.
    pub stats: SessionActivity,
    /// How many compiled programs the session's registry holds.
    pub stored_programs: u64,
    /// The highest request `seq` the session has executed, if any — a
    /// resuming client continues its idempotency sequence from the next
    /// value.
    pub last_seq: Option<u64>,
}

/// Outcome of a stored program's most recent run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The last run completed and was billed.
    Success,
    /// The last run failed; the message says why.
    Error {
        /// The error message of the failed run.
        message: String,
    },
}

impl RunStatus {
    /// Whether the last run succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, RunStatus::Success)
    }
}

/// One stored program in the session's registry (`list_programs`):
/// compile-time facts plus cumulative run history.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramEntry {
    /// Session-local stored-program id.
    pub pid: u64,
    /// Registry name, when the program was stored with one.
    pub name: Option<String>,
    /// Predicted hardware cycles of one run (the static cost model).
    pub cycles: u64,
    /// Input slots a `run_stored` binding covers.
    pub writes: u64,
    /// Completed `run_stored` executions of this entry.
    pub runs: u64,
    /// Failed `run_stored` attempts at this entry.
    pub errors: u64,
    /// Hardware cycles billed across every run of this entry.
    pub total_cycles: u64,
    /// Energy billed across every run of this entry, femtojoules.
    pub total_energy_fj: f64,
    /// Outcome of the most recent run (`None` until the first).
    pub last_status: Option<RunStatus>,
}

/// Machine-readable class of a failed request.
///
/// `Generic` failures (bad argument, ISA error, unknown stored id, …)
/// carry no `"kind"` field on the wire; retrying them unchanged fails
/// again. The other kinds are transient conditions a client can react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorKind {
    /// A request error with no more specific class.
    #[default]
    Generic,
    /// A per-session limit was exceeded; [`ErrorBody::limit`] says which
    /// and [`ErrorBody::retry_after_ms`] hints when the budget refills.
    LimitExceeded,
    /// The server is shedding load; back off and retry.
    Overloaded,
    /// The request's `timeout_ms` expired in queue or mid-execution.
    DeadlineExceeded,
    /// A submitted instruction stream failed validation;
    /// [`ErrorBody::code`] carries the stable [`ProgError`] code and
    /// [`ErrorBody::index`] the offending instruction when known.
    InvalidProgram,
    /// The presented token once named a session, but it sat detached past
    /// the server's TTL and was garbage-collected. The state is gone;
    /// open a fresh session.
    SessionExpired,
    /// The presented token never named a session on this server —
    /// forged, truncated, or minted elsewhere.
    BadToken,
}

impl ErrorKind {
    /// The wire name of this kind (`None` for `Generic`, which is encoded
    /// by omitting the field).
    pub fn name(&self) -> Option<&'static str> {
        match self {
            ErrorKind::Generic => None,
            ErrorKind::LimitExceeded => Some("limit_exceeded"),
            ErrorKind::Overloaded => Some("overloaded"),
            ErrorKind::DeadlineExceeded => Some("deadline_exceeded"),
            ErrorKind::InvalidProgram => Some("invalid_program"),
            ErrorKind::SessionExpired => Some("session_expired"),
            ErrorKind::BadToken => Some("bad_token"),
        }
    }

    /// The kind for a wire name, if any.
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        Some(match name {
            "limit_exceeded" => ErrorKind::LimitExceeded,
            "overloaded" => ErrorKind::Overloaded,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "invalid_program" => ErrorKind::InvalidProgram,
            "session_expired" => ErrorKind::SessionExpired,
            "bad_token" => ErrorKind::BadToken,
            _ => return None,
        })
    }
}

/// Which per-session limit a `limit_exceeded` error tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// The session's hardware-cycles-per-second budget.
    CycleRate,
    /// The session's energy-per-second budget.
    EnergyRate,
    /// Too many requests in flight on the connection at once.
    Inflight,
    /// A submitted program has more instructions than allowed.
    ProgramLength,
    /// The session's stored-program cache is full.
    StoredPrograms,
    /// The server's durable-session registry is full.
    Sessions,
    /// The server-wide cap on stored programs across every durable
    /// session (orphans included) is full.
    RegistryPrograms,
}

impl LimitKind {
    /// The wire name of this limit.
    pub fn name(&self) -> &'static str {
        match self {
            LimitKind::CycleRate => "cycle_rate",
            LimitKind::EnergyRate => "energy_rate",
            LimitKind::Inflight => "inflight",
            LimitKind::ProgramLength => "program_length",
            LimitKind::StoredPrograms => "stored_programs",
            LimitKind::Sessions => "sessions",
            LimitKind::RegistryPrograms => "registry_programs",
        }
    }

    /// The limit for a wire name, if any.
    pub fn from_name(name: &str) -> Option<LimitKind> {
        Some(match name {
            "cycle_rate" => LimitKind::CycleRate,
            "energy_rate" => LimitKind::EnergyRate,
            "inflight" => LimitKind::Inflight,
            "program_length" => LimitKind::ProgramLength,
            "stored_programs" => LimitKind::StoredPrograms,
            "sessions" => LimitKind::Sessions,
            "registry_programs" => LimitKind::RegistryPrograms,
            _ => return None,
        })
    }
}

/// A failed request: human-readable message plus optional machine class.
///
/// On the wire: `{"id":N,"ok":false,"error":MSG}` with `"kind"`,
/// `"limit"`, `"retry_after_ms"`, `"code"` and `"index"` added only when
/// set.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    /// Machine-readable class (`Generic` is encoded by omission).
    pub kind: ErrorKind,
    /// Which limit tripped, for `LimitExceeded` errors.
    pub limit: Option<LimitKind>,
    /// Back-off hint in milliseconds, for transient errors.
    pub retry_after_ms: Option<u64>,
    /// Stable [`ProgError`] code (`E001`…), for `InvalidProgram` errors.
    pub code: Option<String>,
    /// Offending instruction index, for `InvalidProgram` errors that
    /// implicate one instruction.
    pub index: Option<u64>,
    /// Human-readable reason.
    pub message: String,
}

impl ErrorBody {
    /// A plain request error with no machine-readable class.
    pub fn generic(message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::Generic,
            limit: None,
            retry_after_ms: None,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// A `limit_exceeded` error naming the limit that tripped.
    pub fn limit(
        limit: LimitKind,
        retry_after_ms: Option<u64>,
        message: impl Into<String>,
    ) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::LimitExceeded,
            limit: Some(limit),
            retry_after_ms,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// An `overloaded` shed with a back-off hint.
    pub fn overloaded(retry_after_ms: Option<u64>, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::Overloaded,
            limit: None,
            retry_after_ms,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// A `deadline_exceeded` error.
    pub fn deadline(message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::DeadlineExceeded,
            limit: None,
            retry_after_ms: None,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// A `session_expired` error: the token was real but its session sat
    /// detached past the TTL and was garbage-collected.
    pub fn session_expired(message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::SessionExpired,
            limit: None,
            retry_after_ms: None,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// A `bad_token` error: the token never named a session here.
    pub fn bad_token(message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::BadToken,
            limit: None,
            retry_after_ms: None,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// An `invalid_program` error carrying the stable [`ProgError`] code
    /// and, when one instruction is implicated, its index.
    pub fn invalid_program(
        code: impl Into<String>,
        index: Option<u64>,
        message: impl Into<String>,
    ) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::InvalidProgram,
            limit: None,
            retry_after_ms: None,
            code: Some(code.into()),
            index,
            message: message.into(),
        }
    }
}

impl From<&ProgError> for ErrorBody {
    fn from(e: &ProgError) -> ErrorBody {
        ErrorBody::invalid_program(e.code(), e.instr().map(|i| i as u64), e.to_string())
    }
}

impl From<String> for ErrorBody {
    fn from(message: String) -> ErrorBody {
        ErrorBody::generic(message)
    }
}

impl From<&str> for ErrorBody {
    fn from(message: &str) -> ErrorBody {
        ErrorBody::generic(message)
    }
}

impl fmt::Display for ErrorBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// What `store_program` returns: the session-local id to pass to
/// `run_stored`, plus the compiled program's static facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredMeta {
    /// Session-local stored-program id.
    pub pid: u64,
    /// Predicted hardware cycles of one run (the static cost model).
    pub cycles: u64,
    /// `write`/`write_mult` instructions — the input slots a `run_stored`
    /// binding covers, in submitted order.
    pub writes: u64,
    /// Lint findings for the submitted stream (empty when the linter is
    /// silent; omitted from the wire encoding then).
    pub diagnostics: Vec<Diagnostic>,
}

/// One response, tagged with the request's id.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// Result or error.
    pub body: ResponseBody,
}

/// What `exec_program` returns: read outputs plus exact per-instruction
/// accounting, aligned with the submitted instruction list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgramReport {
    /// One vector per `read`/`read_products` instruction, in order.
    pub outputs: Vec<Vec<u64>>,
    /// Hardware cycles billed to each submitted instruction (an
    /// instruction fused away by the lowering pass bills 0).
    pub cycles: Vec<u64>,
    /// Energy billed to each submitted instruction, femtojoules.
    pub energy_fj: Vec<f64>,
}

impl ProgramReport {
    /// Total hardware cycles of the run.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Total energy of the run, femtojoules.
    pub fn total_energy_fj(&self) -> f64 {
        self.energy_fj.iter().sum()
    }
}

/// A malformed wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed message: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<FieldError> for WireError {
    fn from(e: FieldError) -> WireError {
        WireError(e.0)
    }
}

impl ToJson for Precision {
    fn to_json(&self) -> Json {
        self.bits().to_json()
    }
}

impl FromJson<'_> for Precision {
    fn from_json(v: &Json, key: &str) -> Result<Self, FieldError> {
        let bits = usize::from_json(v, key)?;
        Precision::try_from_bits(bits)
            .map_err(|_| FieldError(format!("unsupported precision {bits} (use 2/4/8/16/32)")))
    }
}

impl ToJson for Reg {
    fn to_json(&self) -> Json {
        u64::from(self.0).to_json()
    }
}

impl FromJson<'_> for Reg {
    fn from_json(v: &Json, key: &str) -> Result<Self, FieldError> {
        u16::try_from(u64::from_json(v, key)?)
            .map(Reg)
            .map_err(|_| FieldError(format!("register '{key}' out of range")))
    }
}

/// One program instruction as its wire object (see the module docs for
/// the vocabulary): the name under `"i"`, then its operands.
impl ToJson for Instr {
    fn to_json(&self) -> Json {
        let obj = Json::object().field("i", self.name());
        match self {
            Instr::Write {
                dst,
                precision,
                values,
            }
            | Instr::WriteMult {
                dst,
                precision,
                values,
            } => obj
                .field("dst", dst)
                .field("precision", precision)
                .field("values", values),
            Instr::Read { src, precision, n } | Instr::ReadProducts { src, precision, n } => obj
                .field("src", src)
                .field("precision", precision)
                .field("n", *n),
            Instr::Logic { a, b, dst, .. } => obj.field("a", a).field("b", b).field("dst", dst),
            Instr::Not { src, dst } | Instr::Copy { src, dst } => {
                obj.field("src", src).field("dst", dst)
            }
            Instr::Shl {
                src,
                dst,
                precision,
            } => obj
                .field("src", src)
                .field("dst", dst)
                .field("precision", precision),
            Instr::Add {
                a,
                b,
                dst,
                precision,
            }
            | Instr::AddShift {
                a,
                b,
                dst,
                precision,
            }
            | Instr::Sub {
                a,
                b,
                dst,
                precision,
            }
            | Instr::Mult {
                a,
                b,
                dst,
                precision,
            } => obj
                .field("a", a)
                .field("b", b)
                .field("dst", dst)
                .field("precision", precision),
            Instr::ReduceAdd {
                srcs,
                dst,
                precision,
            } => obj
                .field("srcs", srcs)
                .field("dst", dst)
                .field("precision", precision),
        }
        .build()
    }
}

impl FromJson<'_> for Instr {
    fn from_json(v: &Json, _key: &str) -> Result<Self, FieldError> {
        Ok(match v.req("i")? {
            "write" => Instr::Write {
                dst: v.req("dst")?,
                precision: v.req("precision")?,
                values: v.req("values")?,
            },
            "write_mult" => Instr::WriteMult {
                dst: v.req("dst")?,
                precision: v.req("precision")?,
                values: v.req("values")?,
            },
            "read" => Instr::Read {
                src: v.req("src")?,
                precision: v.req("precision")?,
                n: v.req("n")?,
            },
            "read_products" => Instr::ReadProducts {
                src: v.req("src")?,
                precision: v.req("precision")?,
                n: v.req("n")?,
            },
            "not" => Instr::Not {
                src: v.req("src")?,
                dst: v.req("dst")?,
            },
            "copy" => Instr::Copy {
                src: v.req("src")?,
                dst: v.req("dst")?,
            },
            "shl" => Instr::Shl {
                src: v.req("src")?,
                dst: v.req("dst")?,
                precision: v.req("precision")?,
            },
            "add" => Instr::Add {
                a: v.req("a")?,
                b: v.req("b")?,
                dst: v.req("dst")?,
                precision: v.req("precision")?,
            },
            "add_shift" => Instr::AddShift {
                a: v.req("a")?,
                b: v.req("b")?,
                dst: v.req("dst")?,
                precision: v.req("precision")?,
            },
            "sub" => Instr::Sub {
                a: v.req("a")?,
                b: v.req("b")?,
                dst: v.req("dst")?,
                precision: v.req("precision")?,
            },
            "mult" => Instr::Mult {
                a: v.req("a")?,
                b: v.req("b")?,
                dst: v.req("dst")?,
                precision: v.req("precision")?,
            },
            "reduce_add" => Instr::ReduceAdd {
                srcs: v.req("srcs")?,
                dst: v.req("dst")?,
                precision: v.req("precision")?,
            },
            other => match LaneOp::from_name(other) {
                Some(LaneOp::Logic(op)) => Instr::Logic {
                    op,
                    a: v.req("a")?,
                    b: v.req("b")?,
                    dst: v.req("dst")?,
                },
                _ => return Err(FieldError(format!("unknown instruction '{other}'"))),
            },
        })
    }
}

/// Serializes one program instruction to its wire object. Public so the
/// server's persistence layer journals submitted instruction streams in
/// the exact wire vocabulary — one representation, one parser, whether a
/// program arrives over TCP or out of a recovery journal.
pub fn instr_to_json(instr: &Instr) -> Json {
    instr.to_json()
}

/// Parses one program instruction from its wire object — the inverse of
/// [`instr_to_json`].
///
/// # Errors
///
/// Returns a [`WireError`] naming the missing or malformed field.
pub fn instr_from_json(v: &Json) -> Result<Instr, WireError> {
    Ok(Instr::from_json(v, "instrs")?)
}

/// Parses the `pid`-or-`name` address shared by `run_stored` and
/// `delete_program` (exactly one must be present).
fn stored_target(v: &Json) -> Result<StoredTarget, FieldError> {
    match (v.get("pid"), v.get("name")) {
        (Some(_), None) => v.req("pid").map(StoredTarget::Pid),
        (None, Some(_)) => v.req("name").map(StoredTarget::Name),
        _ => Err(FieldError(
            "exactly one of 'pid' or 'name' must address the stored program".into(),
        )),
    }
}

fn with_target(obj: ObjBuilder, target: &StoredTarget) -> ObjBuilder {
    match target {
        StoredTarget::Pid(pid) => obj.field("pid", *pid),
        StoredTarget::Name(name) => obj.field("name", name),
    }
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Json {
        Json::object()
            .field("code", &self.code)
            .field("severity", self.severity.name())
            .field("start", self.span.start)
            .field("end", self.span.end)
            .field("message", &self.message)
            .build()
    }
}

impl FromJson<'_> for Diagnostic {
    fn from_json(v: &Json, _key: &str) -> Result<Self, FieldError> {
        let severity = Severity::from_name(v.req("severity")?).ok_or_else(|| {
            FieldError("diagnostic field 'severity' must be error/warn/perf".into())
        })?;
        Ok(Diagnostic {
            code: v.req("code")?,
            severity,
            span: v.req("start")?..v.req("end")?,
            message: v.req("message")?,
        })
    }
}

/// Appends the flat `requests`/`errors`/`cycles`/`energy_fj` account shape
/// shared by `stats` and `session` results.
fn with_activity(obj: ObjBuilder, s: &SessionActivity) -> ObjBuilder {
    obj.field("requests", s.requests)
        .field("errors", s.errors)
        .field("cycles", s.cycles)
        .field("energy_fj", s.energy_fj)
}

impl FromJson<'_> for SessionActivity {
    fn from_json(v: &Json, _key: &str) -> Result<Self, FieldError> {
        Ok(SessionActivity {
            requests: v.req("requests")?,
            errors: v.req("errors")?,
            cycles: v.req("cycles")?,
            energy_fj: v.req("energy_fj")?,
        })
    }
}

impl ToJson for SessionInfo {
    fn to_json(&self) -> Json {
        with_activity(Json::object().field("token", &self.token), &self.stats)
            .field("stored_programs", self.stored_programs)
            .field_opt("last_seq", self.last_seq)
            .build()
    }
}

impl FromJson<'_> for SessionInfo {
    fn from_json(v: &Json, key: &str) -> Result<Self, FieldError> {
        Ok(SessionInfo {
            token: v.req("token")?,
            stats: SessionActivity::from_json(v, key)?,
            stored_programs: v.req("stored_programs")?,
            last_seq: v.opt("last_seq")?,
        })
    }
}

impl ToJson for StoredMeta {
    fn to_json(&self) -> Json {
        Json::object()
            .field("pid", self.pid)
            .field("cycles", self.cycles)
            .field("writes", self.writes)
            .field_opt(
                "diagnostics",
                (!self.diagnostics.is_empty()).then_some(&self.diagnostics),
            )
            .build()
    }
}

impl FromJson<'_> for StoredMeta {
    fn from_json(v: &Json, _key: &str) -> Result<Self, FieldError> {
        Ok(StoredMeta {
            pid: v.req("pid")?,
            cycles: v.req("cycles")?,
            writes: v.req("writes")?,
            diagnostics: v.opt("diagnostics")?.unwrap_or_default(),
        })
    }
}

impl ToJson for ProgramReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("outputs", &self.outputs)
            .field("cycles", &self.cycles)
            .field("energy_fj", &self.energy_fj)
            .build()
    }
}

impl FromJson<'_> for ProgramReport {
    fn from_json(v: &Json, _key: &str) -> Result<Self, FieldError> {
        Ok(ProgramReport {
            outputs: v.req("outputs")?,
            cycles: v.req("cycles")?,
            energy_fj: v.req("energy_fj")?,
        })
    }
}

/// One registry entry; the wire encodes its run status as `last_status`
/// (`"success"`/`"error"`) plus `last_error` for a failed run.
impl ToJson for ProgramEntry {
    fn to_json(&self) -> Json {
        let (status, error) = match &self.last_status {
            None => (None, None),
            Some(RunStatus::Success) => (Some("success"), None),
            Some(RunStatus::Error { message }) => (Some("error"), Some(message)),
        };
        Json::object()
            .field("pid", self.pid)
            .field_opt("name", self.name.as_ref())
            .field("cycles", self.cycles)
            .field("writes", self.writes)
            .field("runs", self.runs)
            .field("errors", self.errors)
            .field("total_cycles", self.total_cycles)
            .field("total_energy_fj", self.total_energy_fj)
            .field_opt("last_status", status)
            .field_opt("last_error", error)
            .build()
    }
}

impl FromJson<'_> for ProgramEntry {
    fn from_json(v: &Json, _key: &str) -> Result<Self, FieldError> {
        let last_status = match v.opt("last_status")? {
            None => None,
            Some("success") => Some(RunStatus::Success),
            Some("error") => Some(RunStatus::Error {
                message: v.opt("last_error")?.unwrap_or_default(),
            }),
            Some(_) => {
                return Err(FieldError(
                    "field 'last_status' must be success or error".into(),
                ))
            }
        };
        Ok(ProgramEntry {
            pid: v.req("pid")?,
            name: v.opt("name")?,
            cycles: v.req("cycles")?,
            writes: v.req("writes")?,
            runs: v.req("runs")?,
            errors: v.req("errors")?,
            total_cycles: v.req("total_cycles")?,
            total_energy_fj: v.req("total_energy_fj")?,
            last_status,
        })
    }
}

impl RequestBody {
    /// The wire name of this request kind (its `"op"`).
    fn op(&self) -> &'static str {
        match self {
            RequestBody::Ping => "ping",
            RequestBody::Dot { .. } => "dot",
            RequestBody::Lanes { op, .. } => op.name(),
            RequestBody::LoadModel { .. } => "load_model",
            RequestBody::Classify { .. } => "classify",
            RequestBody::ExecProgram { .. } => "exec_program",
            RequestBody::StoreProgram { .. } => "store_program",
            RequestBody::RunStored { .. } => "run_stored",
            RequestBody::ListPrograms => "list_programs",
            RequestBody::DeleteProgram { .. } => "delete_program",
            RequestBody::OpenSession => "open_session",
            RequestBody::ResumeSession { .. } => "resume_session",
            RequestBody::LintProgram { .. } => "lint_program",
            RequestBody::Stats => "stats",
            RequestBody::Shutdown => "shutdown",
        }
    }
}

impl Request {
    /// Extracts just the `id` of a line, for error responses to requests
    /// that do not parse fully. Returns `None` when the line has no
    /// readable non-negative integer `id` (bad JSON, missing field, wrong
    /// type) — the server answers such lines with the documented sentinel
    /// id 0, since the protocol has no way to address a reply otherwise.
    pub fn peek_id(line: &str) -> Option<u64> {
        Json::parse(line).ok()?.req("id").ok()
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem (bad JSON, missing or
    /// ill-typed field, unknown op).
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let v = Json::parse(line.trim()).map_err(|e| WireError(e.to_string()))?;
        let id = v.req("id")?;
        let timeout_ms = v.opt("timeout_ms")?;
        let seq = v.opt("seq")?;
        let body = match v.req("op")? {
            "ping" => RequestBody::Ping,
            "dot" => RequestBody::Dot {
                precision: v.req("precision")?,
                x: v.req("x")?,
                w: v.req("w")?,
            },
            "load_model" => RequestBody::LoadModel {
                precision: v.req("precision")?,
                prototypes: v.req("prototypes")?,
            },
            "classify" => RequestBody::Classify { x: v.req("x")? },
            "exec_program" => RequestBody::ExecProgram {
                instrs: v.req("instrs")?,
            },
            "store_program" => RequestBody::StoreProgram {
                instrs: v.req("instrs")?,
                name: v.opt("name")?,
            },
            "lint_program" => RequestBody::LintProgram {
                instrs: v.req("instrs")?,
            },
            "run_stored" => RequestBody::RunStored {
                inputs: v
                    .opt("inputs")
                    .map_err(|_| {
                        WireError("field 'inputs' must be an array of integers or null".into())
                    })?
                    .unwrap_or_default(),
                target: stored_target(&v)?,
            },
            "list_programs" => RequestBody::ListPrograms,
            "delete_program" => RequestBody::DeleteProgram {
                target: stored_target(&v)?,
            },
            "open_session" => RequestBody::OpenSession,
            "resume_session" => RequestBody::ResumeSession {
                token: v.req("token")?,
            },
            "stats" => RequestBody::Stats,
            "shutdown" => RequestBody::Shutdown,
            other => match LaneOp::from_name(other) {
                Some(op) => RequestBody::Lanes {
                    op,
                    precision: v.req("precision")?,
                    a: v.req("a")?,
                    b: v.req("b")?,
                },
                None => return Err(WireError(format!("unknown op '{other}'"))),
            },
        };
        Ok(Request {
            id,
            timeout_ms,
            seq,
            body,
        })
    }

    /// Serializes the request to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let obj = Json::object()
            .field("id", self.id)
            .field_opt("timeout_ms", self.timeout_ms)
            .field_opt("seq", self.seq)
            .field("op", self.body.op());
        match &self.body {
            RequestBody::Ping
            | RequestBody::ListPrograms
            | RequestBody::OpenSession
            | RequestBody::Stats
            | RequestBody::Shutdown => obj,
            RequestBody::Dot { precision, x, w } => obj
                .field("precision", precision)
                .field("x", x)
                .field("w", w),
            RequestBody::Lanes {
                precision, a, b, ..
            } => obj
                .field("precision", precision)
                .field("a", a)
                .field("b", b),
            RequestBody::LoadModel {
                precision,
                prototypes,
            } => obj
                .field("precision", precision)
                .field("prototypes", prototypes),
            RequestBody::Classify { x } => obj.field("x", x),
            RequestBody::ExecProgram { instrs } | RequestBody::LintProgram { instrs } => {
                obj.field("instrs", instrs)
            }
            RequestBody::StoreProgram { instrs, name } => {
                obj.field("instrs", instrs).field_opt("name", name.as_ref())
            }
            RequestBody::RunStored { target, inputs } => {
                with_target(obj, target).field_opt("inputs", (!inputs.is_empty()).then_some(inputs))
            }
            RequestBody::DeleteProgram { target } => with_target(obj, target),
            RequestBody::ResumeSession { token } => obj.field("token", token),
        }
        .build()
        .to_string()
    }
}

impl Response {
    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem.
    pub fn parse(line: &str) -> Result<Response, WireError> {
        let v = Json::parse(line.trim()).map_err(|e| WireError(e.to_string()))?;
        let id = v.req("id")?;
        if !v.req::<bool>("ok")? {
            // Unknown kinds/limits from a newer server degrade to generic
            // rather than failing the parse.
            let name = |key| v.get(key).and_then(Json::as_str);
            let body = ErrorBody {
                kind: name("kind")
                    .and_then(ErrorKind::from_name)
                    .unwrap_or_default(),
                limit: name("limit").and_then(LimitKind::from_name),
                retry_after_ms: v.opt("retry_after_ms")?,
                code: v.opt("code")?,
                index: v.opt("index")?,
                message: v.req("error")?,
            };
            return Ok(Response {
                id,
                body: ResponseBody::Error(body),
            });
        }
        let body = match v.req("kind")? {
            "pong" => ResponseBody::Pong,
            "ok" => ResponseBody::Ok,
            "scalar" => ResponseBody::Scalar(v.req("result")?),
            "words" => ResponseBody::Words(v.req("result")?),
            "class" => ResponseBody::Class(v.req("result")?),
            "program" => ResponseBody::Program(v.req("result")?),
            "stored" => ResponseBody::Stored(v.req("result")?),
            "diagnostics" => ResponseBody::Diagnostics(v.req("result")?),
            "stats" => ResponseBody::Stats(v.req("result")?),
            "session" => ResponseBody::Session(v.req("result")?),
            "programs" => ResponseBody::Programs(v.req("result")?),
            other => return Err(WireError(format!("unknown response kind '{other}'"))),
        };
        Ok(Response { id, body })
    }

    /// Serializes the response to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let obj = Json::object().field("id", self.id);
        let (kind, result) = match &self.body {
            ResponseBody::Error(e) => {
                return obj
                    .field("ok", false)
                    .field("error", &e.message)
                    .field_opt("kind", e.kind.name())
                    .field_opt("limit", e.limit.map(|l| l.name()))
                    .field_opt("retry_after_ms", e.retry_after_ms)
                    .field_opt("code", e.code.as_ref())
                    .field_opt("index", e.index)
                    .build()
                    .to_string()
            }
            ResponseBody::Pong => ("pong", None),
            ResponseBody::Ok => ("ok", None),
            ResponseBody::Scalar(n) => ("scalar", Some(n.to_json())),
            ResponseBody::Words(ws) => ("words", Some(ws.to_json())),
            ResponseBody::Class(c) => ("class", Some(c.to_json())),
            ResponseBody::Program(r) => ("program", Some(r.to_json())),
            ResponseBody::Stored(s) => ("stored", Some(s.to_json())),
            ResponseBody::Diagnostics(ds) => ("diagnostics", Some(ds.to_json())),
            ResponseBody::Stats(s) => ("stats", Some(with_activity(Json::object(), s).build())),
            ResponseBody::Session(info) => ("session", Some(info.to_json())),
            ResponseBody::Programs(entries) => ("programs", Some(entries.to_json())),
        };
        obj.field("ok", true)
            .field("kind", kind)
            .field_opt("result", result)
            .build()
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `req` to exactly `golden` and decodes `golden` back to
    /// `req`: a codec that reorders or renames fields fails here even when
    /// its encoder and decoder agree with each other.
    fn round_trip_request(req: Request, golden: &str) {
        assert_eq!(req.to_json_line(), golden);
        assert_eq!(Request::parse(golden).unwrap(), req, "{golden}");
        assert_eq!(Request::peek_id(golden), Some(req.id));
    }

    /// [`round_trip_request`]'s twin for responses.
    fn round_trip_response(resp: Response, golden: &str) {
        assert_eq!(resp.to_json_line(), golden);
        assert_eq!(Response::parse(golden).unwrap(), resp, "{golden}");
    }

    /// The wire form of [`every_instr_kind`].
    const EVERY_INSTR_JSON: &str = r#"[{"i":"write","dst":0,"precision":8,"values":[1,2,3]},{"i":"write_mult","dst":1,"precision":8,"values":[4,5]},{"i":"not","src":0,"dst":2},{"i":"copy","src":2,"dst":3},{"i":"shl","src":3,"dst":4,"precision":8},{"i":"add","a":0,"b":2,"dst":5,"precision":8},{"i":"add_shift","a":0,"b":5,"dst":6,"precision":4},{"i":"sub","a":5,"b":0,"dst":7,"precision":8},{"i":"mult","a":1,"b":1,"dst":8,"precision":8},{"i":"reduce_add","srcs":[0,2,5],"dst":9,"precision":8},{"i":"read","src":9,"precision":8,"n":3},{"i":"read_products","src":8,"precision":8,"n":2},{"i":"and","a":0,"b":2,"dst":10},{"i":"or","a":0,"b":2,"dst":10},{"i":"xor","a":0,"b":2,"dst":10},{"i":"nand","a":0,"b":2,"dst":10},{"i":"nor","a":0,"b":2,"dst":10},{"i":"xnor","a":0,"b":2,"dst":10}]"#;

    #[test]
    fn every_request_kind_round_trips() {
        for (req, golden) in golden_requests() {
            round_trip_request(req, &golden);
        }
    }

    #[test]
    fn every_response_kind_round_trips() {
        for (resp, golden) in golden_responses() {
            round_trip_response(resp, &golden);
        }
    }

    /// One request of every kind with its exact wire line.
    fn golden_requests() -> Vec<(Request, String)> {
        let mut cases = vec![
            (
                Request {
                    id: 1,
                    timeout_ms: None,
                    seq: None,
                    body: RequestBody::Ping,
                },
                r#"{"id":1,"op":"ping"}"#.to_string(),
            ),
            (
                Request {
                    id: 2,
                    timeout_ms: None,
                    seq: None,
                    body: RequestBody::Dot {
                        precision: Precision::P8,
                        x: vec![1, 2, 3],
                        w: vec![4, 5, 6],
                    },
                },
                r#"{"id":2,"op":"dot","precision":8,"x":[1,2,3],"w":[4,5,6]}"#.to_string(),
            ),
        ];
        for (op, name) in [
            (LaneOp::Add, "add"),
            (LaneOp::Sub, "sub"),
            (LaneOp::Mult, "mult"),
            (LaneOp::Logic(LogicOp::And), "and"),
            (LaneOp::Logic(LogicOp::Or), "or"),
            (LaneOp::Logic(LogicOp::Xor), "xor"),
            (LaneOp::Logic(LogicOp::Nand), "nand"),
            (LaneOp::Logic(LogicOp::Nor), "nor"),
            (LaneOp::Logic(LogicOp::Xnor), "xnor"),
        ] {
            let lane_line =
                format!(r#"{{"id":3,"op":"{name}","precision":4,"a":[1,15],"b":[3,9]}}"#);
            cases.push((
                Request {
                    id: 3,
                    timeout_ms: None,
                    seq: None,
                    body: RequestBody::Lanes {
                        op,
                        precision: Precision::P4,
                        a: vec![1, 15],
                        b: vec![3, 9],
                    },
                },
                lane_line,
            ));
        }
        cases.extend([
        (
            Request {
                id: 4,
                timeout_ms: None,
                seq: None,
                body: RequestBody::LoadModel {
                    precision: Precision::P2,
                    prototypes: vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0]],
                },
            },
            r#"{"id":4,"op":"load_model","precision":2,"prototypes":[[0,1,2,3],[3,2,1,0]]}"#
                .to_string(),
        ),
        (
            Request {
                id: 5,
                timeout_ms: None,
                seq: None,
                body: RequestBody::Classify { x: vec![1, 2] },
            },
            r#"{"id":5,"op":"classify","x":[1,2]}"#.to_string(),
        ),
        (
            Request {
                id: 9,
                timeout_ms: None,
                seq: None,
                body: RequestBody::ExecProgram {
                    instrs: every_instr_kind(),
                },
            },
            format!(r#"{{"id":9,"op":"exec_program","instrs":{EVERY_INSTR_JSON}}}"#),
        ),
        (
            Request {
                id: 10,
                timeout_ms: None,
                seq: None,
                body: RequestBody::StoreProgram {
                    instrs: every_instr_kind(),
                    name: None,
                },
            },
            format!(r#"{{"id":10,"op":"store_program","instrs":{EVERY_INSTR_JSON}}}"#),
        ),
        (
            Request {
                id: 14,
                timeout_ms: None,
                seq: Some(3),
                body: RequestBody::StoreProgram {
                    instrs: every_instr_kind(),
                    name: Some("conv3x3".into()),
                },
            },
            format!(
                r#"{{"id":14,"seq":3,"op":"store_program","instrs":{EVERY_INSTR_JSON},"name":"conv3x3"}}"#
            ),
        ),
        (
            Request {
                id: 13,
                timeout_ms: None,
                seq: None,
                body: RequestBody::LintProgram {
                    instrs: every_instr_kind(),
                },
            },
            format!(r#"{{"id":13,"op":"lint_program","instrs":{EVERY_INSTR_JSON}}}"#),
        ),
        (
            Request {
                id: 11,
                timeout_ms: None,
                seq: None,
                body: RequestBody::RunStored {
                    target: StoredTarget::Pid(3),
                    inputs: vec![],
                },
            },
            r#"{"id":11,"op":"run_stored","pid":3}"#.to_string(),
        ),
        (
            Request {
                id: 12,
                timeout_ms: None,
                seq: None,
                body: RequestBody::RunStored {
                    target: StoredTarget::Pid(7),
                    inputs: vec![Some(vec![1, 2, 3]), None, Some(vec![]), Some(vec![255])],
                },
            },
            r#"{"id":12,"op":"run_stored","pid":7,"inputs":[[1,2,3],null,[],[255]]}"#.to_string(),
        ),
        (
            Request {
                id: 15,
                timeout_ms: None,
                seq: Some(9),
                body: RequestBody::RunStored {
                    target: StoredTarget::Name("conv3x3".into()),
                    inputs: vec![None, Some(vec![4])],
                },
            },
            r#"{"id":15,"seq":9,"op":"run_stored","name":"conv3x3","inputs":[null,[4]]}"#
                .to_string(),
        ),
        (
            Request {
                id: 16,
                timeout_ms: None,
                seq: None,
                body: RequestBody::ListPrograms,
            },
            r#"{"id":16,"op":"list_programs"}"#.to_string(),
        ),
        (
            Request {
                id: 17,
                timeout_ms: None,
                seq: Some(1),
                body: RequestBody::DeleteProgram {
                    target: StoredTarget::Name("conv3x3".into()),
                },
            },
            r#"{"id":17,"seq":1,"op":"delete_program","name":"conv3x3"}"#.to_string(),
        ),
        (
            Request {
                id: 18,
                timeout_ms: None,
                seq: None,
                body: RequestBody::DeleteProgram {
                    target: StoredTarget::Pid(2),
                },
            },
            r#"{"id":18,"op":"delete_program","pid":2}"#.to_string(),
        ),
        (
            Request {
                id: 19,
                timeout_ms: None,
                seq: None,
                body: RequestBody::OpenSession,
            },
            r#"{"id":19,"op":"open_session"}"#.to_string(),
        ),
        (
            Request {
                id: 20,
                timeout_ms: None,
                seq: None,
                body: RequestBody::ResumeSession {
                    token: "a1b2c3d4e5f60718293a4b5c6d7e8f90".into(),
                },
            },
            r#"{"id":20,"op":"resume_session","token":"a1b2c3d4e5f60718293a4b5c6d7e8f90"}"#
                .to_string(),
        ),
        (
            Request {
                id: 6,
                timeout_ms: None,
                seq: None,
                body: RequestBody::Stats,
            },
            r#"{"id":6,"op":"stats"}"#.to_string(),
        ),
        (
            Request {
                id: 8,
                timeout_ms: None,
                seq: None,
                body: RequestBody::Shutdown,
            },
            r#"{"id":8,"op":"shutdown"}"#.to_string(),
        ),
        ]);
        cases
    }

    /// One of each instruction kind (all six logic functions included),
    /// with distinct registers so round-trip mix-ups cannot cancel out.
    fn every_instr_kind() -> Vec<Instr> {
        let p = Precision::P8;
        let mut instrs = vec![
            Instr::Write {
                dst: Reg(0),
                precision: p,
                values: vec![1, 2, 3],
            },
            Instr::WriteMult {
                dst: Reg(1),
                precision: p,
                values: vec![4, 5],
            },
            Instr::Not {
                src: Reg(0),
                dst: Reg(2),
            },
            Instr::Copy {
                src: Reg(2),
                dst: Reg(3),
            },
            Instr::Shl {
                src: Reg(3),
                dst: Reg(4),
                precision: p,
            },
            Instr::Add {
                a: Reg(0),
                b: Reg(2),
                dst: Reg(5),
                precision: p,
            },
            Instr::AddShift {
                a: Reg(0),
                b: Reg(5),
                dst: Reg(6),
                precision: Precision::P4,
            },
            Instr::Sub {
                a: Reg(5),
                b: Reg(0),
                dst: Reg(7),
                precision: p,
            },
            Instr::Mult {
                a: Reg(1),
                b: Reg(1),
                dst: Reg(8),
                precision: p,
            },
            Instr::ReduceAdd {
                srcs: vec![Reg(0), Reg(2), Reg(5)],
                dst: Reg(9),
                precision: p,
            },
            Instr::Read {
                src: Reg(9),
                precision: p,
                n: 3,
            },
            Instr::ReadProducts {
                src: Reg(8),
                precision: p,
                n: 2,
            },
        ];
        for op in [
            LogicOp::And,
            LogicOp::Or,
            LogicOp::Xor,
            LogicOp::Nand,
            LogicOp::Nor,
            LogicOp::Xnor,
        ] {
            instrs.push(Instr::Logic {
                op,
                a: Reg(0),
                b: Reg(2),
                dst: Reg(10),
            });
        }
        instrs
    }

    /// One response of every kind with its exact wire line.
    fn golden_responses() -> Vec<(Response, String)> {
        vec![
        (
            Response {
                id: 1,
                body: ResponseBody::Pong,
            },
            r#"{"id":1,"ok":true,"kind":"pong"}"#.to_string(),
        ),
        (
            Response {
                id: 2,
                body: ResponseBody::Scalar(u64::MAX),
            },
            r#"{"id":2,"ok":true,"kind":"scalar","result":18446744073709551615}"#.to_string(),
        ),
        (
            Response {
                id: 3,
                body: ResponseBody::Words(vec![0, 255, 1 << 40]),
            },
            r#"{"id":3,"ok":true,"kind":"words","result":[0,255,1099511627776]}"#.to_string(),
        ),
        (
            Response {
                id: 4,
                body: ResponseBody::Class(3),
            },
            r#"{"id":4,"ok":true,"kind":"class","result":3}"#.to_string(),
        ),
        (
            Response {
                id: 5,
                body: ResponseBody::Ok,
            },
            r#"{"id":5,"ok":true,"kind":"ok"}"#.to_string(),
        ),
        (
            Response {
                id: 6,
                body: ResponseBody::Stats(SessionActivity {
                    requests: 12,
                    errors: 1,
                    cycles: 3456,
                    energy_fj: 789.25,
                }),
            },
            r#"{"id":6,"ok":true,"kind":"stats","result":{"requests":12,"errors":1,"cycles":3456,"energy_fj":789.25}}"#.to_string(),
        ),
        (
            Response {
                id: 7,
                body: ResponseBody::Error("no model loaded".into()),
            },
            r#"{"id":7,"ok":false,"error":"no model loaded"}"#.to_string(),
        ),
        (
            Response {
                id: 9,
                body: ResponseBody::Stored(StoredMeta {
                    pid: 12,
                    cycles: 345,
                    writes: 6,
                    diagnostics: Vec::new(),
                }),
            },
            r#"{"id":9,"ok":true,"kind":"stored","result":{"pid":12,"cycles":345,"writes":6}}"#
                .to_string(),
        ),
        (
            Response {
                id: 10,
                body: ResponseBody::Stored(StoredMeta {
                    pid: 13,
                    cycles: 7,
                    writes: 2,
                    diagnostics: vec![Diagnostic {
                        code: "L001".into(),
                        severity: Severity::Warn,
                        span: 1..2,
                        message: "dead store".into(),
                    }],
                }),
            },
            r#"{"id":10,"ok":true,"kind":"stored","result":{"pid":13,"cycles":7,"writes":2,"diagnostics":[{"code":"L001","severity":"warn","start":1,"end":2,"message":"dead store"}]}}"#.to_string(),
        ),
        (
            Response {
                id: 11,
                body: ResponseBody::Diagnostics(vec![
                    Diagnostic {
                        code: "L004".into(),
                        severity: Severity::Perf,
                        span: 2..4,
                        message: "missed fusion".into(),
                    },
                    Diagnostic {
                        code: "E002".into(),
                        severity: Severity::Error,
                        span: 0..1,
                        message: "use before def".into(),
                    },
                ]),
            },
            r#"{"id":11,"ok":true,"kind":"diagnostics","result":[{"code":"L004","severity":"perf","start":2,"end":4,"message":"missed fusion"},{"code":"E002","severity":"error","start":0,"end":1,"message":"use before def"}]}"#.to_string(),
        ),
        (
            Response {
                id: 12,
                body: ResponseBody::Diagnostics(Vec::new()),
            },
            r#"{"id":12,"ok":true,"kind":"diagnostics","result":[]}"#.to_string(),
        ),
        (
            Response {
                id: 13,
                body: ResponseBody::Session(SessionInfo {
                    token: "00ff00ff00ff00ff00ff00ff00ff00ff".into(),
                    stats: SessionActivity {
                        requests: 40,
                        errors: 2,
                        cycles: 999,
                        energy_fj: 1.5,
                    },
                    stored_programs: 3,
                    last_seq: Some(39),
                }),
            },
            r#"{"id":13,"ok":true,"kind":"session","result":{"token":"00ff00ff00ff00ff00ff00ff00ff00ff","requests":40,"errors":2,"cycles":999,"energy_fj":1.5,"stored_programs":3,"last_seq":39}}"#.to_string(),
        ),
        (
            Response {
                id: 13,
                body: ResponseBody::Session(SessionInfo {
                    token: "aa".repeat(16),
                    stats: SessionActivity::new(),
                    stored_programs: 0,
                    last_seq: None,
                }),
            },
            r#"{"id":13,"ok":true,"kind":"session","result":{"token":"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa","requests":0,"errors":0,"cycles":0,"energy_fj":0,"stored_programs":0}}"#.to_string(),
        ),
        (
            Response {
                id: 14,
                body: ResponseBody::Programs(vec![
                    ProgramEntry {
                        pid: 0,
                        name: Some("conv3x3".into()),
                        cycles: 120,
                        writes: 2,
                        runs: 7,
                        errors: 1,
                        total_cycles: 840,
                        total_energy_fj: 123.25,
                        last_status: Some(RunStatus::Error {
                            message: "input 0 must have 9 values".into(),
                        }),
                    },
                    ProgramEntry {
                        pid: 1,
                        name: None,
                        cycles: 3,
                        writes: 0,
                        runs: 2,
                        errors: 0,
                        total_cycles: 6,
                        total_energy_fj: 0.5,
                        last_status: Some(RunStatus::Success),
                    },
                    ProgramEntry {
                        pid: 2,
                        name: Some("idle".into()),
                        cycles: 1,
                        writes: 1,
                        runs: 0,
                        errors: 0,
                        total_cycles: 0,
                        total_energy_fj: 0.0,
                        last_status: None,
                    },
                ]),
            },
            r#"{"id":14,"ok":true,"kind":"programs","result":[{"pid":0,"name":"conv3x3","cycles":120,"writes":2,"runs":7,"errors":1,"total_cycles":840,"total_energy_fj":123.25,"last_status":"error","last_error":"input 0 must have 9 values"},{"pid":1,"cycles":3,"writes":0,"runs":2,"errors":0,"total_cycles":6,"total_energy_fj":0.5,"last_status":"success"},{"pid":2,"name":"idle","cycles":1,"writes":1,"runs":0,"errors":0,"total_cycles":0,"total_energy_fj":0}]}"#.to_string(),
        ),
        (
            Response {
                id: 15,
                body: ResponseBody::Programs(Vec::new()),
            },
            r#"{"id":15,"ok":true,"kind":"programs","result":[]}"#.to_string(),
        ),
        (
            Response {
                id: 8,
                body: ResponseBody::Program(ProgramReport {
                    outputs: vec![vec![1, 2], vec![3]],
                    cycles: vec![1, 1, 10, 0, 1],
                    energy_fj: vec![100.5, 100.5, 2040.25, 0.0, 33.0],
                }),
            },
            r#"{"id":8,"ok":true,"kind":"program","result":{"outputs":[[1,2],[3]],"cycles":[1,1,10,0,1],"energy_fj":[100.5,100.5,2040.25,0,33]}}"#.to_string(),
        ),
        ]
    }

    /// Mutates the golden wire lines and each instruction object through
    /// every wire decoder: each must answer with a value or an error.
    fn fuzz_wire_decoders(seed: u64, count: usize) {
        let mut corpus: Vec<Vec<u8>> = golden_requests()
            .into_iter()
            .map(|(_, line)| line.into_bytes())
            .chain(
                golden_responses()
                    .into_iter()
                    .map(|(_, line)| line.into_bytes()),
            )
            .collect();
        let instrs = Json::parse(EVERY_INSTR_JSON).unwrap();
        corpus.extend(
            instrs
                .as_array()
                .unwrap()
                .iter()
                .map(|i| i.to_string().into_bytes()),
        );
        crate::fuzz::check_decoders(&corpus, seed, count, |bytes| {
            let text = String::from_utf8_lossy(bytes);
            let mut errors: Vec<String> = match Json::parse(&text) {
                Ok(v) => instr_from_json(&v)
                    .err()
                    .map(|e| e.to_string())
                    .into_iter()
                    .collect(),
                Err(e) => vec![e.to_string()],
            };
            errors.extend(Request::parse(&text).err().map(|e| e.to_string()));
            errors.extend(Response::parse(&text).err().map(|e| e.to_string()));
            errors
        });
    }

    #[test]
    fn wire_decoders_survive_seeded_mutation() {
        fuzz_wire_decoders(1, 4000);
    }

    #[test]
    #[ignore = "CI fuzz budget; run with --ignored"]
    fn wire_decoders_survive_seeded_mutation_at_ci_budget() {
        for seed in 100..116 {
            fuzz_wire_decoders(seed, 25_000);
        }
    }

    #[test]
    fn malformed_requests_report_the_problem() {
        for (line, needle) in [
            ("not json", "malformed"),
            ("{\"id\":1}", "op"),
            ("{\"id\":1,\"op\":\"frobnicate\"}", "unknown op"),
            ("{\"id\":1,\"op\":\"inject_panic\"}", "unknown op"),
            ("{\"op\":\"ping\"}", "id"),
            ("{\"id\":1,\"op\":\"dot\",\"precision\":8,\"x\":[1]}", "'w'"),
            (
                "{\"id\":1,\"op\":\"add\",\"precision\":3,\"a\":[],\"b\":[]}",
                "precision",
            ),
            (
                "{\"id\":1,\"op\":\"dot\",\"precision\":8,\"x\":[-1],\"w\":[1]}",
                "'x'",
            ),
            ("{\"id\":1,\"op\":\"exec_program\"}", "'instrs'"),
            (
                "{\"id\":1,\"op\":\"exec_program\",\"instrs\":[{\"i\":\"frobnicate\"}]}",
                "unknown instruction",
            ),
            (
                "{\"id\":1,\"op\":\"exec_program\",\"instrs\":[{\"i\":\"add\",\"a\":0,\"b\":1,\"dst\":99999,\"precision\":8}]}",
                "register 'dst' out of range",
            ),
            (
                "{\"id\":1,\"op\":\"exec_program\",\"instrs\":[{\"i\":\"write\",\"dst\":0,\"precision\":5,\"values\":[]}]}",
                "precision",
            ),
            ("{\"id\":1,\"op\":\"store_program\"}", "'instrs'"),
            ("{\"id\":1,\"op\":\"run_stored\"}", "'pid'"),
            (
                "{\"id\":1,\"op\":\"run_stored\",\"pid\":1,\"inputs\":7}",
                "'inputs' must be an array",
            ),
            (
                "{\"id\":1,\"op\":\"run_stored\",\"pid\":1,\"inputs\":[\"x\"]}",
                "array of integers or null",
            ),
            (
                "{\"id\":1,\"op\":\"run_stored\",\"pid\":1,\"name\":\"x\"}",
                "exactly one of 'pid' or 'name'",
            ),
            ("{\"id\":1,\"op\":\"delete_program\"}", "'pid' or 'name'"),
            (
                "{\"id\":1,\"op\":\"resume_session\"}",
                "missing field 'token'",
            ),
            (
                "{\"id\":1,\"op\":\"resume_session\",\"token\":7}",
                "'token' must be a string",
            ),
            (
                "{\"id\":1,\"op\":\"store_program\",\"instrs\":[],\"name\":7}",
                "'name' must be a string",
            ),
            (
                "{\"id\":1,\"seq\":\"x\",\"op\":\"ping\"}",
                "'seq' must be a non-negative integer",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{line} -> {err} (wanted {needle})"
            );
        }
    }

    #[test]
    fn structured_errors_round_trip() {
        round_trip_response(
            Response {
                id: 20,
                body: ResponseBody::Error(ErrorBody::limit(
                    LimitKind::CycleRate,
                    Some(750),
                    "session cycle budget exhausted",
                )),
            },
            r#"{"id":20,"ok":false,"error":"session cycle budget exhausted","kind":"limit_exceeded","limit":"cycle_rate","retry_after_ms":750}"#,
        );
        round_trip_response(
            Response {
                id: 21,
                body: ResponseBody::Error(ErrorBody::limit(
                    LimitKind::ProgramLength,
                    None,
                    "program too long",
                )),
            },
            r#"{"id":21,"ok":false,"error":"program too long","kind":"limit_exceeded","limit":"program_length"}"#,
        );
        round_trip_response(
            Response {
                id: 22,
                body: ResponseBody::Error(ErrorBody::overloaded(Some(50), "server overloaded")),
            },
            r#"{"id":22,"ok":false,"error":"server overloaded","kind":"overloaded","retry_after_ms":50}"#,
        );
        round_trip_response(
            Response {
                id: 23,
                body: ResponseBody::Error(ErrorBody::deadline("deadline expired in queue")),
            },
            r#"{"id":23,"ok":false,"error":"deadline expired in queue","kind":"deadline_exceeded"}"#,
        );
        round_trip_response(
            Response {
                id: 24,
                body: ResponseBody::Error(ErrorBody::invalid_program(
                    "E002",
                    Some(3),
                    "instruction 3 reads register r1 before any write",
                )),
            },
            r#"{"id":24,"ok":false,"error":"instruction 3 reads register r1 before any write","kind":"invalid_program","code":"E002","index":3}"#,
        );
        round_trip_response(
            Response {
                id: 25,
                body: ResponseBody::Error(ErrorBody::invalid_program(
                    "E001",
                    None,
                    "program needs 200 registers but the macro has 125 rows",
                )),
            },
            r#"{"id":25,"ok":false,"error":"program needs 200 registers but the macro has 125 rows","kind":"invalid_program","code":"E001"}"#,
        );
        round_trip_response(
            Response {
                id: 26,
                body: ResponseBody::Error(ErrorBody::session_expired(
                    "session expired 31s ago; open a fresh one",
                )),
            },
            r#"{"id":26,"ok":false,"error":"session expired 31s ago; open a fresh one","kind":"session_expired"}"#,
        );
        round_trip_response(
            Response {
                id: 27,
                body: ResponseBody::Error(ErrorBody::bad_token("unknown session token")),
            },
            r#"{"id":27,"ok":false,"error":"unknown session token","kind":"bad_token"}"#,
        );
        for limit in [
            LimitKind::CycleRate,
            LimitKind::EnergyRate,
            LimitKind::Inflight,
            LimitKind::ProgramLength,
            LimitKind::StoredPrograms,
            LimitKind::Sessions,
            LimitKind::RegistryPrograms,
        ] {
            assert_eq!(LimitKind::from_name(limit.name()), Some(limit));
        }
        for kind in [ErrorKind::SessionExpired, ErrorKind::BadToken] {
            assert_eq!(ErrorKind::from_name(kind.name().unwrap()), Some(kind));
        }
    }

    #[test]
    fn generic_errors_stay_wire_compatible() {
        // A generic error serializes exactly as before this protocol grew
        // machine-readable kinds, and unknown kinds degrade to generic.
        let line = Response {
            id: 7,
            body: ResponseBody::Error("no model loaded".into()),
        }
        .to_json_line();
        assert_eq!(
            line,
            "{\"id\":7,\"ok\":false,\"error\":\"no model loaded\"}"
        );
        let parsed =
            Response::parse("{\"id\":3,\"ok\":false,\"error\":\"boom\",\"kind\":\"brand_new\"}")
                .unwrap();
        assert_eq!(parsed.body, ResponseBody::Error(ErrorBody::generic("boom")));
    }

    #[test]
    fn timeout_ms_rides_any_request() {
        let req = Request {
            id: 31,
            timeout_ms: Some(250),
            seq: None,
            body: RequestBody::Ping,
        };
        let line = req.to_json_line();
        assert_eq!(Request::parse(&line).unwrap(), req);
        // Absent and null both mean "no deadline".
        let bare = Request::parse("{\"id\":1,\"op\":\"ping\"}").unwrap();
        assert_eq!(bare.timeout_ms, None);
        let null = Request::parse("{\"id\":1,\"timeout_ms\":null,\"op\":\"ping\"}").unwrap();
        assert_eq!(null.timeout_ms, None);
        let err = Request::parse("{\"id\":1,\"timeout_ms\":\"soon\",\"op\":\"ping\"}").unwrap_err();
        assert!(err.to_string().contains("timeout_ms"));
    }

    #[test]
    fn seq_rides_any_request() {
        let req = Request {
            id: 32,
            timeout_ms: Some(100),
            seq: Some(17),
            body: RequestBody::Dot {
                precision: Precision::P8,
                x: vec![1],
                w: vec![2],
            },
        };
        let line = req.to_json_line();
        assert_eq!(Request::parse(&line).unwrap(), req);
        // Absent and null both mean "not seq-guarded".
        let bare = Request::parse("{\"id\":1,\"op\":\"ping\"}").unwrap();
        assert_eq!(bare.seq, None);
        let null = Request::parse("{\"id\":1,\"seq\":null,\"op\":\"ping\"}").unwrap();
        assert_eq!(null.seq, None);
    }

    #[test]
    fn peek_id_is_explicit_about_missing_ids() {
        // A line with no readable id yields None — not a silent 0 that
        // could be confused with a client actually using id 0.
        assert_eq!(Request::peek_id("garbage"), None);
        assert_eq!(Request::peek_id("{\"op\":\"ping\"}"), None);
        assert_eq!(Request::peek_id("{\"id\":-3,\"op\":\"ping\"}"), None);
        assert_eq!(Request::peek_id("{\"id\":\"seven\",\"op\":\"ping\"}"), None);
        assert_eq!(
            Request::peek_id("{\"id\":42,\"op\":\"frobnicate\"}"),
            Some(42)
        );
        assert_eq!(Request::peek_id("{\"id\":0,\"op\":\"ping\"}"), Some(0));
    }
}

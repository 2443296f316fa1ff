//! The calls a session makes, each in two shapes.
//!
//! Untraced, an op is the facade call a user's app makes (`kernel.read`,
//! `cp_query`, ...) timed as one end-to-end kind. Traced, the same op is
//! split at the layer boundaries the facade hides: `Kernel::process` then
//! `Vfs::read`/`write` with the process's credentials and namespace, or
//! `MaxoidSystem::caller` then `ContentResolver::query`/`update`. Each
//! half is timed and wrapped in an obs span named after its layer, so
//! the program's own spans nest under it.

use crate::record::Recorder;
use maxoid::{ContentValues, MaxoidSystem, Pid, QueryArgs, Uri, VolCommitPlan};
use maxoid_sqldb::{ResultSet, Value};
use maxoid_vfs::{Mode, VPath};

/// End-to-end op kinds (plain windows).
pub const FS_READ: &str = "fs_read";
pub const FS_WRITE: &str = "fs_write";
pub const CP_QUERY: &str = "cp_query";
pub const CP_UPDATE: &str = "cp_update";
pub const BASE_UPDATE: &str = "base_update";
pub const GESTURE: &str = "gesture";
pub const SESSION: &str = "session";

/// Split-call kinds (traced windows); also the names of their spans.
pub const KERNEL_PROCESS: &str = "kernel.process";
pub const VFS_READ: &str = "vfs.read";
pub const VFS_WRITE: &str = "vfs.write";
pub const CORE_CALLER: &str = "core.caller";
pub const PROVIDERS_QUERY: &str = "providers.query";
pub const PROVIDERS_UPDATE: &str = "providers.update";
pub const CORE_GESTURE: &str = "core.gesture";

/// Reads a whole file as `pid`.
pub fn fs_read(
    sys: &MaxoidSystem,
    rec: &mut Recorder,
    traced: bool,
    pid: Pid,
    path: &VPath,
) -> Option<Vec<u8>> {
    let out = if traced {
        rec.time(KERNEL_PROCESS, || sys.kernel.process(pid))
            .and_then(|p| rec.time(VFS_READ, || sys.kernel.vfs().read(p.cred(), &p.ns, path)))
    } else {
        rec.time(FS_READ, || sys.kernel.read(pid, path))
    };
    rec.op(out)
}

/// Creates or truncates a file as `pid`.
pub fn fs_write(
    sys: &MaxoidSystem,
    rec: &mut Recorder,
    traced: bool,
    pid: Pid,
    path: &VPath,
    data: &[u8],
) -> Option<()> {
    let out = if traced {
        rec.time(KERNEL_PROCESS, || sys.kernel.process(pid)).and_then(|p| {
            rec.time(VFS_WRITE, || {
                sys.kernel.vfs().write(p.cred(), &p.ns, path, data, Mode::PUBLIC)
            })
        })
    } else {
        rec.time(FS_WRITE, || sys.kernel.write(pid, path, data, Mode::PUBLIC))
    };
    rec.op(out)
}

/// Provider point query of one row as `pid`.
pub fn cp_query(
    sys: &MaxoidSystem,
    rec: &mut Recorder,
    traced: bool,
    pid: Pid,
    uri: &Uri,
) -> Option<ResultSet> {
    let args = QueryArgs::default();
    let out = if traced {
        rec.time(CORE_CALLER, || sys.caller(pid))
            .and_then(|c| rec.time(PROVIDERS_QUERY, || sys.resolver.query(&c, uri, &args)))
    } else {
        rec.time(CP_QUERY, || sys.cp_query(pid, uri, &args))
    };
    rec.op(out)
}

/// Provider update of one row as `pid`, timed in plain windows as `kind`.
/// Returns the number of rows changed.
pub fn cp_update(
    sys: &MaxoidSystem,
    rec: &mut Recorder,
    traced: bool,
    kind: &'static str,
    pid: Pid,
    uri: &Uri,
    values: &ContentValues,
) -> Option<usize> {
    let args = QueryArgs::default();
    let out = if traced {
        rec.time(CORE_CALLER, || sys.caller(pid)).and_then(|c| {
            rec.time(PROVIDERS_UPDATE, || sys.resolver.update(&c, uri, values, &args))
        })
    } else {
        rec.time(kind, || sys.cp_update(pid, uri, values, &args))
    };
    rec.op(out)
}

/// The initiator's commit gesture with `plan`.
pub fn commit_vol(
    sys: &MaxoidSystem,
    rec: &mut Recorder,
    traced: bool,
    init: &str,
    plan: &VolCommitPlan,
) -> Option<()> {
    let kind = if traced { CORE_GESTURE } else { GESTURE };
    let out = rec.time(kind, || sys.commit_vol(init, plan).map(|_| ()));
    rec.op(out)
}

/// The initiator's Clear-Vol gesture.
pub fn clear_vol(sys: &MaxoidSystem, rec: &mut Recorder, traced: bool, init: &str) -> Option<()> {
    let kind = if traced { CORE_GESTURE } else { GESTURE };
    let out = rec.time(kind, || sys.clear_vol(init).map(|_| ()));
    rec.op(out)
}

/// The `word` column of a one-row result, if that is its shape.
pub fn word_of(rs: &ResultSet) -> Option<&str> {
    let col = rs.columns.iter().position(|c| c == "word")?;
    match rs.rows.as_slice() {
        [row] => match row.get(col)? {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        },
        _ => None,
    }
}

/// `(id, word)` of every row of a result that has both columns.
pub fn id_words(rs: &ResultSet) -> Vec<(i64, String)> {
    let (Some(id), Some(word)) =
        (rs.columns.iter().position(|c| c == "_id"), rs.columns.iter().position(|c| c == "word"))
    else {
        return Vec::new();
    };
    rs.rows
        .iter()
        .filter_map(|r| match (r.get(id), r.get(word)) {
            (Some(Value::Integer(i)), Some(Value::Text(w))) => Some((*i, w.clone())),
            _ => None,
        })
        .collect()
}

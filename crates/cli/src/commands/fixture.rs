//! What every verb's in-process tests share.

use super::{dispatch, CliError};
pub(super) use std::fs;
use std::path::PathBuf;

const DOC: &str = r#"
    <movieDB>
      <director id="d1"><name/><movie id="m1"><title/></movie></director>
      <actor id="a1" idref="m1"><name/></actor>
    </movieDB>"#;

pub(super) struct TempDir(PathBuf);

impl TempDir {
    pub(super) fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "dkindex-cli-test-{tag}-{}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    pub(super) fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

pub(super) fn run(args: &[&str]) -> Result<String, CliError> {
    dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

pub(super) fn write_doc(dir: &TempDir) -> PathBuf {
    let p = dir.file("doc.xml");
    fs::write(&p, DOC).unwrap();
    p
}

/// The telemetry recorder is process-global and tests run on parallel
/// threads; tests that toggle it serialize here.
pub(super) fn telemetry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

//! Reading the dependency tables of `Cargo.toml` manifests.
//!
//! Line-based, which suffices for this workspace's manifests: one
//! dependency per line, inline tables only.

/// `(name, path)` of each entry of a manifest's `[table]` that names a
/// `path`, as written; `workspace = true` entries carry `None`, and
/// registry entries (a bare version) are skipped.
pub fn dependencies(manifest: &str, table: &str) -> Vec<(String, Option<String>)> {
    let header = format!("[{table}]");
    let mut out = Vec::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=').filter(|_| inside) else {
            continue;
        };
        let key = key.trim();
        let name = key.strip_suffix(".workspace").unwrap_or(key).trim();
        let path = value
            .split_once("path = \"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(path, _)| path.to_string());
        let shared = key.ends_with(".workspace") || value.contains("workspace = true");
        if path.is_some() || shared {
            out.push((name.to_string(), path));
        }
    }
    out
}

/// `dir/rel` with `.` and `..` components resolved.
pub fn join(dir: &str, rel: &str) -> String {
    let mut parts: Vec<&str> = dir.split('/').filter(|p| !p.is_empty()).collect();
    for p in rel.split('/') {
        match p {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            p => parts.push(p),
        }
    }
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependency_tables_resolve_to_workspace_directories() {
        let manifest = "[package]\nname = \"sim\"\n\n[dependencies]\n\
                        # comment = { path = \"../commented\" }\n\
                        util = { path = \"../util\" }\n\
                        netsim.workspace = true\n\
                        rand = { workspace = true }\n\
                        serde = \"1\"\n\n\
                        [dev-dependencies]\nharness = { path = \"../harness\" }\n";
        assert_eq!(
            dependencies(manifest, "dependencies"),
            [
                ("util".to_string(), Some("../util".to_string())),
                ("netsim".to_string(), None),
                ("rand".to_string(), None),
            ]
        );
        assert_eq!(
            dependencies(manifest, "dev-dependencies"),
            [("harness".to_string(), Some("../harness".to_string()))]
        );
        assert_eq!(join("crates/sim", "../util"), "crates/util");
        assert_eq!(join("", "crates/compat/rand"), "crates/compat/rand");
        assert_eq!(join("crates/sim", "./sub/../x"), "crates/sim/x");
    }
}

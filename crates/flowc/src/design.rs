//! Resolving `--design` specifications.
//!
//! A design spec is either a path to an AIGER/BLIF file (anything containing a
//! path separator or a recognised extension) or the name of a generated paper
//! benchmark with an optional scale suffix: `montgomery64`, `aes128:small`,
//! `alu64:full`.

use std::path::Path;

use aig::io::Format;
use aig::Aig;
use circuits::{Design, DesignScale};

/// Where a resolved design came from (recorded in the report JSON).
pub struct ResolvedDesign {
    pub aig: Aig,
    /// `file:<path>` or `generated:<name>:<scale>`.
    pub source: String,
}

/// Resolves a design spec into an in-memory AIG.
pub fn resolve_design(spec: &str) -> Result<ResolvedDesign, String> {
    if looks_like_path(spec) {
        let aig = aig::io::read_design(spec).map_err(|e| format!("cannot read `{spec}`: {e}"))?;
        return Ok(ResolvedDesign {
            aig,
            source: format!("file:{spec}"),
        });
    }
    let (name, scale_name) = match spec.split_once(':') {
        Some((name, scale)) => (name, scale),
        None => (spec, "tiny"),
    };
    let design = Design::ALL
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown design `{name}` (expected a path to a .aag/.aig/.blif file, or one of: {})",
                Design::ALL.map(|d| d.name()).join(", ")
            )
        })?;
    let scale = parse_scale(scale_name)?;
    Ok(ResolvedDesign {
        aig: design.generate(scale),
        source: format!("generated:{name}:{scale_name}"),
    })
}

/// Resolves a comma-separated list of design specs, in list order.
pub fn resolve_designs(list: &str) -> Result<Vec<ResolvedDesign>, String> {
    let designs = list
        .split(',')
        .map(str::trim)
        .filter(|spec| !spec.is_empty())
        .map(resolve_design)
        .collect::<Result<Vec<_>, _>>()?;
    if designs.is_empty() {
        return Err(format!("`{list}` names no designs"));
    }
    Ok(designs)
}

/// Parses a `tiny` / `small` / `full` scale name.
pub fn parse_scale(name: &str) -> Result<DesignScale, String> {
    match name {
        "tiny" => Ok(DesignScale::Tiny),
        "small" => Ok(DesignScale::Small),
        "full" => Ok(DesignScale::Full),
        other => Err(format!("unknown scale `{other}` (tiny, small or full)")),
    }
}

fn looks_like_path(spec: &str) -> bool {
    spec.contains(['/', '\\'])
        || Path::new(spec)
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| Format::from_extension(&e.to_ascii_lowercase()).is_some())
        || Path::new(spec).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_resolve() {
        let d = resolve_design("alu64").unwrap();
        assert_eq!(d.source, "generated:alu64:tiny");
        assert!(d.aig.num_ands() > 50);
        let d = resolve_design("montgomery64:tiny").unwrap();
        assert_eq!(d.source, "generated:montgomery64:tiny");
        assert!(resolve_design("alu64:huge").is_err());
        assert!(resolve_design("unknown64").is_err());
    }

    #[test]
    fn design_lists_resolve_in_order() {
        let list = resolve_designs(" aes128:tiny,, alu64 ,").unwrap();
        let sources: Vec<&str> = list.iter().map(|d| d.source.as_str()).collect();
        assert_eq!(sources, ["generated:aes128:tiny", "generated:alu64:tiny"]);
        assert!(resolve_designs(" , ").is_err());
        assert!(resolve_designs("alu64,unknown64").is_err());
    }

    #[test]
    fn file_specs_resolve_via_io() {
        let dir = std::env::temp_dir().join(format!("flowc-design-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.aag");
        let mut g = Aig::with_name("tiny");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let f = g.and(a, b);
        g.add_output("f", f);
        std::fs::write(&path, aig::io::write_aag(&g)).unwrap();
        let d = resolve_design(path.to_str().unwrap()).unwrap();
        assert_eq!(d.aig.num_ands(), 1);
        assert!(d.source.starts_with("file:"));
        assert!(resolve_design("missing-file.aig").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

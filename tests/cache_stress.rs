//! Concurrent-publish stress test for the sharded allocation cache.
//!
//! A compile daemon holds many in-flight requests in one process, and
//! several of them can compute and publish the *same* component entry
//! (same key, byte-identical value) at the same time. The publish path
//! must therefore be atomic per shard file even against sibling threads:
//! no `<key>.ce.json` may ever be observable in a torn or partial state,
//! and no temp file may be recycled while another thread is still
//! writing it (the pid-only temp names of cache format v3 had exactly
//! that hazard).

use ipra_core::ipra::compile_module;
use ipra_driver::Config;
use ipra_obs::json::{self, Json};

#[test]
fn many_sessions_hammering_one_key_never_tear_an_entry() {
    let module = ipra_frontend::compile(
        r#"
        fn leaf(x: int) -> int { return x * 3 + 1; }
        fn mid(a: int, b: int) -> int { return leaf(a) + leaf(b); }
        fn main() {
            var i: int = 0;
            var acc: int = 0;
            while i < 5 { acc = acc + mid(i, acc); i = i + 1; }
            print(acc);
        }
        "#,
    )
    .unwrap();
    let n = module.funcs.len() as u64;

    let dir = std::env::temp_dir().join(format!("ipra-cache-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = Config::c();
    cfg.opts.cache_dir = Some(dir.clone());
    let want = compile_module(&module, &cfg.target, &Config::c().opts)
        .mmodule
        .asm(&cfg.target.regs);

    // Every thread compiles the same module against the same cache
    // directory, repeatedly. Each cold round publishes the same set of
    // keys; warm rounds race their lookups against sibling publishes.
    // Output must stay byte-identical throughout — a torn entry that
    // still parsed would surface here as divergent assembly.
    std::thread::scope(|s| {
        for _ in 0..12 {
            s.spawn(|| {
                for _ in 0..8 {
                    let compiled = compile_module(&module, &cfg.target, &cfg.opts);
                    assert_eq!(
                        compiled.mmodule.asm(&cfg.target.regs),
                        want,
                        "torn cache entry replayed"
                    );
                    assert_eq!(
                        compiled.cache.hits + compiled.cache.misses,
                        n,
                        "every function either hits or misses"
                    );
                }
            });
        }
    });

    // Every published shard file must be a complete, well-formed entry.
    let mut shards = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "leftover temp file {name} after all publishers finished"
        );
        assert!(name.ends_with(".ce.json"), "unexpected file {name}");
        shards += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("torn shard {name}: {e}"));
        assert_eq!(
            doc.get("version").and_then(Json::as_i64),
            Some(ipra_core::cache::CACHE_FORMAT_VERSION),
            "shard {name} lost its version"
        );
        assert!(doc.get("funcs").and_then(Json::as_arr).is_some());
    }
    assert!(shards > 0, "the hammer published at least one shard");

    // And a fresh compile replays everything from the surviving files.
    let warm = compile_module(&module, &cfg.target, &cfg.opts);
    assert_eq!(warm.cache.hits, n);
    assert_eq!(warm.cache.misses, 0);
    assert_eq!(warm.mmodule.asm(&cfg.target.regs), want);

    let _ = std::fs::remove_dir_all(&dir);
}

"""Workload generators driving the evaluation.

Each reproduces the syscall mix of a workload the paper measured with:

* :mod:`postmark` — a PostMark clone (small-file create/delete/read/append
  transactions; Katcher's benchmark, used in §3.3 and §3.4).
* :mod:`compilebench` — an Am-utils-compile-like workload (stat-heavy
  source tree walk, read sources, write objects; used in §3.2 and §3.4).
* :mod:`lstool` — /bin/ls -l two ways: readdir+stat vs readdirplus (§2.2).
* :mod:`interactive` — a synthetic interactive session (§2.2's 15-minute
  trace), heavy on directory listing and file browsing.
* :mod:`dbapp` — a record-store database with sequential and random access
  patterns, in plain-syscall and Cosy-compound variants (§2.3).
* :mod:`servers` — web/mail-server syscall trace synthesis for the
  pattern-mining analysis (§2.2).
"""

from repro.workloads.postmark import PostMark, PostMarkConfig, PostMarkResult
from repro.workloads.compilebench import CompileBench, CompileBenchConfig
from repro.workloads.lstool import ls_legacy, ls_readdirplus
from repro.workloads.interactive import InteractiveSession, InteractiveConfig
from repro.workloads.dbapp import RecordStore, DBWorkloadConfig, CosyRecordStore
from repro.workloads.servers import synth_web_server_trace, synth_mail_server_trace
from repro.workloads.webserver import (ReadWriteServer, SendfileServer,
                                       WebServerConfig, build_docroot,
                                       drain_client)
from repro.workloads.httpserver import (CosyHttpServer, EpollHttpServer,
                                        HttpBenchConfig, HttpBenchResult,
                                        SelectHttpServer, SERVER_KINDS,
                                        run_http_bench, run_http_bench_smp)
from repro.workloads.scenario import (FaultStorm, ScenarioConfig,
                                      ScenarioResult, ScenarioRunner,
                                      ScheduleEvent, TenantSpec, TrustTier,
                                      default_tenants, generate_schedule,
                                      run_scenario)

__all__ = [
    "FaultStorm", "ScenarioConfig", "ScenarioResult", "ScenarioRunner",
    "ScheduleEvent", "TenantSpec", "TrustTier", "default_tenants",
    "generate_schedule", "run_scenario",
    "ReadWriteServer", "SendfileServer", "WebServerConfig",
    "build_docroot", "drain_client",
    "CosyHttpServer", "EpollHttpServer", "SelectHttpServer",
    "HttpBenchConfig", "HttpBenchResult", "SERVER_KINDS",
    "run_http_bench", "run_http_bench_smp",
    "PostMark", "PostMarkConfig", "PostMarkResult",
    "CompileBench", "CompileBenchConfig",
    "ls_legacy", "ls_readdirplus",
    "InteractiveSession", "InteractiveConfig",
    "RecordStore", "DBWorkloadConfig", "CosyRecordStore",
    "synth_web_server_trace", "synth_mail_server_trace",
]

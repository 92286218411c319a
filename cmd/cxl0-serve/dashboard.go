package main

// dashboardHTML is the whole ops dashboard: one self-contained page, no
// external assets. It polls /metrics every 2s and tails /events over
// SSE. Visual conventions follow the repo's chart rules: magnitude bars
// are a single hue with the value always printed as text (the bar table
// doubles as the table view), event kinds get a fixed-order categorical
// chip whose label is always text — color never carries identity alone —
// and both light and dark palettes are validated for CVD separation.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>cxl0-serve — live ops</title>
<style>
  :root {
    color-scheme: light;
    --surface: #fcfcfb; --panel: #f4f3f1; --line: #e2e1dd;
    --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #8a8984;
    --busy: #2a78d6; --fill: #1baf7a;
    --k-op: #2a78d6; --k-commit: #eb6834; --k-migration: #1baf7a;
    --k-compaction: #eda100; --k-crash: #e87ba4; --k-recover: #008300;
    --k-rebalance: #4a3aa7; --k-partition: #8a5cd6; --k-heal: #0e8f8f;
    --k-degrade: #a06a00;
    --k-hit: #5a8a00; --k-miss: #b04a2a; --k-speculative: #5c6bd6;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface: #1a1a19; --panel: #242423; --line: #3a3936;
      --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #8a8984;
      --busy: #3987e5; --fill: #199e70;
      --k-op: #3987e5; --k-commit: #d95926; --k-migration: #199e70;
      --k-compaction: #c98500; --k-crash: #d55181; --k-recover: #008300;
      --k-rebalance: #9085e9; --k-partition: #c06ad0; --k-heal: #2ab3ba;
      --k-degrade: #c98a33;
      --k-hit: #7aa62a; --k-miss: #d06a45; --k-speculative: #8a96e9;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; background: var(--surface); color: var(--ink-1);
    font: 14px/1.45 system-ui, sans-serif; padding: 20px;
  }
  h1 { font-size: 18px; margin: 0 0 2px; }
  .sub { color: var(--ink-2); margin-bottom: 18px; font-size: 13px; }
  .tiles { display: grid; grid-template-columns: repeat(auto-fit, minmax(130px, 1fr)); gap: 10px; margin-bottom: 20px; }
  .tile { background: var(--panel); border: 1px solid var(--line); border-radius: 8px; padding: 10px 12px; }
  .tile .v { font-size: 22px; font-weight: 600; font-variant-numeric: tabular-nums; }
  .tile .l { color: var(--ink-2); font-size: 12px; }
  .cols { display: grid; grid-template-columns: 1fr 1fr; gap: 18px; }
  @media (max-width: 900px) { .cols { grid-template-columns: 1fr; } }
  section { background: var(--panel); border: 1px solid var(--line); border-radius: 8px; padding: 14px; margin-bottom: 18px; }
  section h2 { font-size: 13px; text-transform: uppercase; letter-spacing: .05em; color: var(--ink-2); margin: 0 0 10px; }
  table { width: 100%; border-collapse: collapse; font-variant-numeric: tabular-nums; }
  th { text-align: right; color: var(--ink-2); font-weight: 500; font-size: 12px; padding: 3px 8px; border-bottom: 1px solid var(--line); }
  th:first-child, td:first-child { text-align: left; }
  td { text-align: right; padding: 3px 8px; color: var(--ink-1); }
  tr:hover td { background: var(--line); }
  .barcell { width: 38%; }
  .bar { display: flex; align-items: center; gap: 6px; }
  .bar .track { flex: 1; height: 8px; background: var(--line); border-radius: 4px; overflow: hidden; }
  .bar .fillbar { height: 100%; border-radius: 4px; background: var(--busy); }
  .bar.fillkind .fillbar { background: var(--fill); }
  .bar .num { min-width: 48px; color: var(--ink-2); font-size: 12px; }
  #log { font: 12px/1.5 ui-monospace, monospace; max-height: 420px; overflow-y: auto; }
  .ev { display: flex; gap: 8px; align-items: baseline; padding: 1px 0; white-space: nowrap; }
  .chip { display: inline-flex; align-items: center; gap: 4px; min-width: 92px; color: var(--ink-2); }
  .chip i { width: 8px; height: 8px; border-radius: 50%; display: inline-block; }
  .ev .det { color: var(--ink-1); overflow: hidden; text-overflow: ellipsis; }
  .muted { color: var(--ink-3); }
</style>
</head>
<body>
<h1>cxl0-serve</h1>
<div class="sub" id="sub">connecting&hellip;</div>

<div class="tiles" id="tiles"></div>

<div class="cols">
  <div>
    <section>
      <h2>Shards — busy share, log fill &amp; commit pipeline</h2>
      <table id="shards"><thead><tr>
        <th>shard</th><th>cluster</th><th class="barcell">busy share</th>
        <th class="barcell">fill</th><th>live</th>
        <th title="acked-watermark position: log records below it are acknowledged durable">acked</th>
        <th title="commit flushes currently in flight">in-flight</th>
      </tr></thead><tbody></tbody></table>
    </section>
    <section>
      <h2>Latency by op (simulated &micro;s)</h2>
      <table id="lat"><thead><tr>
        <th>op</th><th>count</th><th>rate/s</th><th>mean</th><th>p50</th><th>p95</th><th>p99</th>
      </tr></thead><tbody></tbody></table>
    </section>
  </div>
  <div>
    <section>
      <h2>Event stream <span class="muted" id="evcount"></span></h2>
      <div id="log"></div>
    </section>
  </div>
</div>

<script>
"use strict";
var fmt = function (n) {
  if (n >= 1e9) return (n / 1e9).toFixed(2) + "B";
  if (n >= 1e6) return (n / 1e6).toFixed(2) + "M";
  if (n >= 1e4) return (n / 1e3).toFixed(1) + "k";
  return String(Math.round(n * 100) / 100);
};
var us = function (ns) { return (ns / 1000).toFixed(1); };
var el = function (id) { return document.getElementById(id); };

function tile(label, value, title) {
  return '<div class="tile" title="' + (title || label) + '">' +
    '<div class="v">' + value + '</div><div class="l">' + label + '</div></div>';
}

function barCell(share, kind, text) {
  var pct = Math.max(0, Math.min(100, share * 100));
  return '<div class="bar' + (kind === "fill" ? " fillkind" : "") + '">' +
    '<span class="track"><span class="fillbar" style="width:' + pct.toFixed(1) + '%"></span></span>' +
    '<span class="num">' + text + '</span></div>';
}

function render(m) {
  var f = m.faults || {};
  var down = f.down || [], cut = f.partitioned || [], slow = f.degraded || [];
  el("sub").textContent = "workload " + m.workload + " over " + m.clusters +
    " cluster(s) · up " + Math.round(m.uptime_sec) + "s · " +
    fmt(m.ops) + " ops driven (" + m.failed + " failed, " +
    (f.unavailable || 0) + " unavailable)" +
    (f.campaign ? " · " + f.campaign + " campaign" : "");
  var opsRate = 0;
  (m.obs.ops || []).forEach(function (o) { opsRate += o.rate_per_sec; });
  var cacheServed = (m.kv.cache_hits || 0) + (m.kv.cache_misses || 0);
  el("tiles").innerHTML =
    tile("sim time", fmt(m.sim_ns / 1e6) + " ms", "total simulated time consumed") +
    tile("events/s", fmt(opsRate), "op spans per host second (rolling 10s)") +
    tile("acked writes", fmt(m.kv.acked)) +
    tile("commits", fmt(m.kv.commits)) +
    tile("pipelined", fmt(m.kv.pipelined_commits) + " (K&le;" + (m.kv.max_in_flight || 0) + ")",
      "commit flushes issued through the async pipeline; deepest in-flight occupancy any shard reached") +
    tile("compactions", fmt(m.kv.compactions)) +
    tile("migrations", fmt(m.kv.migrations)) +
    tile("recoveries", fmt(m.kv.recoveries)) +
    tile("impaired", down.length + " / " + cut.length + " / " + slow.length,
      "shards down / partitioned / degraded right now" +
      (down.length ? " — down: " + down.join(",") : "") +
      (cut.length ? " — partitioned: " + cut.join(",") : "") +
      (slow.length ? " — degraded: " + slow.join(",") : "")) +
    tile("unavailable", fmt(f.unavailable || 0),
      "ops denied by a fabric partition (data intact); " +
      (f.partial_results || 0) + " fan-outs returned partial results") +
    tile("cache hits", cacheServed > 0 ? (m.kv.cache_hits / cacheServed * 100).toFixed(1) + "%" : "&mdash;",
      "read-cache hit rate: " + fmt(m.kv.cache_hits) + " hits / " + fmt(m.kv.cache_misses) +
      " misses · " + fmt(m.kv.speculative_fills) + " speculative fills · " +
      fmt(m.kv.cache_size) + " entries resident");

  var sh = "";
  var maxShare = 0;
  (m.shards || []).forEach(function (s) { maxShare = Math.max(maxShare, s.busy_share); });
  (m.shards || []).forEach(function (s) {
    sh += '<tr title="busy ' + fmt(s.busy_ns / 1e6) + ' ms, churn ' + fmt(s.churn_ns / 1e6) + ' ms">' +
      "<td>" + s.shard + "</td><td>" + s.cluster + "</td>" +
      '<td class="barcell">' + barCell(maxShare > 0 ? s.busy_share / maxShare : 0, "busy",
        (s.busy_share * 100).toFixed(1) + "%") + "</td>" +
      '<td class="barcell">' + barCell(s.fill, "fill", (s.fill * 100).toFixed(1) + "%") + "</td>" +
      "<td>" + s.live + "</td><td>" + (s.acked || 0) + "</td>" +
      "<td>" + (s.in_flight ? s.in_flight + "&times;" : "&mdash;") + "</td></tr>";
  });
  el("shards").tBodies[0].innerHTML = sh;

  var lt = "";
  (m.obs.ops || []).forEach(function (o) {
    lt += "<tr><td>" + o.op + "</td><td>" + fmt(o.count) + "</td><td>" + fmt(o.rate_per_sec) +
      "</td><td>" + us(o.mean_ns) + "</td><td>" + us(o.p50_ns) + "</td><td>" +
      us(o.p95_ns) + "</td><td>" + us(o.p99_ns) + "</td></tr>";
  });
  el("lat").tBodies[0].innerHTML = lt ||
    '<tr><td colspan="7" class="muted">no op spans yet</td></tr>';
}

function poll() {
  fetch("/metrics").then(function (r) { return r.json(); }).then(render)
    .catch(function () { el("sub").textContent = "metrics unreachable — retrying"; });
}
poll();
setInterval(poll, 2000);

var seenEvents = 0;
function detail(e) {
  var parts = [];
  if (e.op) parts.push(e.op);
  if (e.step) parts.push(e.step);
  if (e.cluster >= 0) parts.push("c" + e.cluster);
  if (e.shard >= 0) parts.push("sh" + e.shard);
  if (e.bucket >= 0) parts.push("b" + e.bucket + " " + e.from + "→" + e.to);
  if (e.kind === "degrade" && e.n) parts.push("×" + e.n / 100);
  else if (e.n) parts.push("n=" + e.n);
  if (e.acked) parts.push("acked=" + e.acked);
  if (e.kind === "commit" && e.depth > 1) parts.push("K=" + e.depth);
  if (e.queue_ns > 0) parts.push("q " + us(e.queue_ns) + "µs");
  if (e.lost) parts.push("lost=" + e.lost);
  var cost = e.end_ns - e.start_ns;
  if (cost > 0) parts.push(us(cost) + "µs");
  return parts.join(" ");
}
function addEvent(e) {
  seenEvents++;
  var log = el("log");
  var row = document.createElement("div");
  row.className = "ev";
  row.innerHTML = '<span class="chip"><i style="background:var(--k-' + e.kind + ')"></i>' +
    e.kind + "</span>" + '<span class="muted">#' + e.seq + "</span>" +
    '<span class="det">' + detail(e) + "</span>";
  log.insertBefore(row, log.firstChild);
  while (log.childNodes.length > 60) log.removeChild(log.lastChild);
  el("evcount").textContent = "· " + seenEvents + " received";
}
var es = new EventSource("/events");
["op", "commit", "migration", "compaction", "crash", "recover", "rebalance",
 "partition", "heal", "degrade", "hit", "miss", "speculative"]
  .forEach(function (kind) {
    es.addEventListener(kind, function (msg) { addEvent(JSON.parse(msg.data)); });
  });
es.onerror = function () { el("evcount").textContent = "· stream reconnecting"; };
</script>
</body>
</html>
`

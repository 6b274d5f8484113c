package serve

// dashboardHTML is the self-contained live dashboard served at "/":
// no external assets, just a fetch loop over the fleet view at
// /api/metrics rendering the job wavefront (one block per cell,
// colored by state, heat-tinted by recent progress), a streaming
// CPI-stack bar per config, per-worker throughput sparklines and the
// deduped findings feed. The fetch uses cache:'no-cache' so the
// browser revalidates with If-None-Match and idle fleets answer 304
// from the coordinator's ETag. A saved copy of the page (curl / >
// dashboard.html) remains a readable snapshot — CI archives one per
// fleet run.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>pok-serve fleet</title>
<style>
  :root { color-scheme: light dark; }
  body { font: 14px/1.45 ui-monospace, SFMono-Regular, Menlo, monospace;
         margin: 2rem auto; max-width: 72rem; padding: 0 1rem; }
  h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: .2rem .7rem .2rem 0; border-bottom: 1px solid #8884; }
  .wave { display: flex; flex-wrap: wrap; gap: 2px; margin: .4rem 0; }
  .cell { height: 18px; min-width: 14px; border-radius: 3px; position: relative;
          background: #8883; overflow: hidden; }
  .cell .fill { position: absolute; inset: 0; width: 0; background: #4a90d9; }
  .cell.hot .fill { background: #e8a33d; }
  .cell.done .fill { width: 100%; background: #3cb371; }
  .cell.finding { outline: 2px solid #d9534f; outline-offset: -2px; }
  .muted { opacity: .65; } .bad { color: #d9534f; } .ok { color: #3cb371; }
  #err { color: #d9534f; }
  .badge { display: inline-block; padding: 0 .45em; border-radius: .6em;
           background: #d9534f; color: #fff; font-size: .85em; margin-left: .4em; }
  .cpibar { display: flex; height: 16px; border-radius: 3px; overflow: hidden;
            margin: .15rem 0 .3rem; background: #8882; }
  .cpibar div { height: 100%; }
  .cpirow { margin: .2rem 0; }
  .legend span { display: inline-block; margin-right: .8em; white-space: nowrap; }
  .swatch { display: inline-block; width: .8em; height: .8em; border-radius: 2px;
            margin-right: .25em; vertical-align: -.05em; }
  svg.spark { vertical-align: middle; }
  svg.spark polyline { fill: none; stroke: #4a90d9; stroke-width: 1.5; }
</style>
</head>
<body>
<h1>pok-serve fleet <span id="meta" class="muted"></span><span id="badges"></span></h1>
<div id="err"></div>
<h2>Workers</h2>
<div id="workers" class="muted">none yet</div>
<h2>Jobs</h2>
<div id="jobs" class="muted">none yet</div>
<script>
function esc(s) { return String(s).replace(/[&<>"]/g,
  ch => ({'&':'&amp;','<':'&lt;','>':'&gt;','"':'&quot;'}[ch])); }

// CPI-stack component order and palette (profile.Component order).
const COMPS = ['base','fetch','window','slice','replay','lsq','dcache','branch','dram'];
const PALETTE = ['#3cb371','#4a90d9','#8884d8','#e8a33d','#d9534f',
                 '#b5651d','#9acd32','#d96fd9','#708090'];

// prevCursor remembers each cell's cursor from the previous poll so
// the wavefront can heat-tint cells that advanced since then.
const prevCursor = new Map();

function sparkline(points, w, h) {
  if (points.length < 2) return '';
  const peak = Math.max(...points, 1e-9);
  const pts = points.map((v, i) =>
    (i * w / (points.length - 1)).toFixed(1) + ',' +
    (h - 2 - (h - 4) * v / peak).toFixed(1)).join(' ');
  return '<svg class="spark" width="' + w + '" height="' + h + '">' +
         '<polyline points="' + pts + '"/></svg>';
}

// workerSpark builds a throughput series (Minst/s) for one worker from
// consecutive sample deltas of the same job/cell lease.
function workerSpark(name, samples) {
  const series = [];
  const last = new Map();
  for (const s of samples || []) {
    if (s.worker !== name) continue;
    const key = s.job + '/' + s.cell;
    const p = last.get(key);
    last.set(key, s);
    if (!p || s.insts < p.insts || s.ms <= p.ms) continue;
    series.push((s.insts - p.insts) / ((s.ms - p.ms) / 1000) / 1e6);
  }
  return sparkline(series.slice(-40), 120, 18);
}

function renderWorkers(ws, samples) {
  if (!ws || !ws.length) return '<span class="muted">none yet</span>';
  let h = '<table><tr><th>worker</th><th>cells</th><th>programs</th>' +
          '<th>prog/s</th><th>Minst/s</th><th>throughput</th>' +
          '<th>findings</th><th>retries</th><th>last seen</th></tr>';
  for (const w of ws) {
    const s = w.stats || {};
    const flaky = (s.rpc_retries || 0) + (s.heartbeat_errors || 0);
    h += '<tr><td>' + esc(w.name) + '</td><td>' + w.cells + '</td><td>' +
         w.programs + '</td><td>' + w.programs_per_sec.toFixed(2) + '</td><td>' +
         (w.minst_per_sec ? w.minst_per_sec.toFixed(2) : '-') + '</td><td>' +
         workerSpark(w.name, samples) + '</td><td>' +
         (w.findings ? '<span class="bad">' + w.findings + '</span>' : '0') +
         '</td><td' + (flaky ? '' : ' class="muted"') + '>' + (s.rpc_retries || 0) +
         (s.heartbeat_errors ? ' <span class="bad">(' + s.heartbeat_errors + ' hb)</span>' : '') +
         '</td><td class="muted">' + ((Date.now() - w.last_seen_ms) / 1000).toFixed(1) + 's ago</td></tr>';
  }
  return h + '</table>';
}

function renderCPIStacks(snap) {
  if (!snap || !snap.stacks) return '';
  let h = '<div class="cpistacks">';
  for (const cfg of Object.keys(snap.stacks).sort()) {
    const st = snap.stacks[cfg];
    const total = st.cycles || 1;
    const cpi = st.insts ? (st.cycles / st.insts).toFixed(3) : '-';
    h += '<div class="cpirow"><span>' + esc(cfg) + ' <span class="muted">CPI ' +
         cpi + '</span></span><div class="cpibar">';
    (st.components || []).forEach((c, i) => {
      if (c <= 0) return;
      h += '<div style="width:' + (100 * c / total) + '%;background:' + PALETTE[i] +
           '" title="' + COMPS[i] + ': ' + c + ' cycles (' +
           (100 * c / total).toFixed(1) + '%)"></div>';
    });
    h += '</div></div>';
  }
  h += '<div class="legend muted">' + COMPS.map((n, i) =>
    '<span><span class="swatch" style="background:' + PALETTE[i] + '"></span>' +
    n + '</span>').join('') + '</div></div>';
  return h;
}

function renderJob(j) {
  let h = '<h3>' + esc(j.id) + ' <span class="muted">' + esc(j.kind) + '</span> ' +
          (j.state === 'done' ? '<span class="ok">done</span>' :
           j.state === 'failed' ? '<span class="bad">failed: ' + esc(j.failed || '') + '</span>' :
           esc(j.state)) +
          ' <span class="muted">' + j.done + '/' + j.programs + ' programs, ' +
          j.runs + ' runs, ' + j.findings + ' findings</span></h3>';
  h += '<div class="wave">';
  for (const c of (j.cells || [])) {
    const span = Math.max(1, c.end - c.start);
    const pct = Math.min(100, 100 * (c.cursor - c.start) / span);
    const key = j.id + '/' + c.id;
    const hot = prevCursor.has(key) && c.cursor > prevCursor.get(key);
    prevCursor.set(key, c.cursor);
    h += '<div class="cell ' + esc(c.state) + (hot ? ' hot' : '') +
         (c.findings ? ' finding' : '') +
         '" style="flex-grow:' + span + '" title="cell ' + c.id + ' [' + c.start +
         ',' + c.end + ') ' + esc(c.state) +
         (c.worker ? ' @' + esc(c.worker) : '') + '"><div class="fill" style="width:' +
         pct + '%"></div></div>';
  }
  h += '</div>';
  h += renderCPIStacks(j.snapshot);
  if (j.deduped && j.deduped.length) {
    h += '<table><tr><th>signature</th><th>count</th></tr>';
    for (const d of j.deduped) {
      h += '<tr><td class="bad">' + esc(d.sig.kind) +
           (d.sig.field ? '/' + esc(d.sig.field) : '') + '</td><td>' + d.count + '</td></tr>';
    }
    h += '</table>';
  }
  if (j.feed && j.feed.length) {
    h += '<details><summary>' + j.feed.length + ' findings</summary><table>' +
         '<tr><th>prog</th><th>cfg</th><th>sched</th><th>kind</th><th>detail</th></tr>';
    for (const f of j.feed) {
      h += '<tr><td>p' + f.program + '</td><td>' + esc(f.config) + '</td><td>' +
           esc(f.scheduler) + '</td><td class="bad">' + esc(f.kind) +
           (f.field ? '/' + esc(f.field) : '') + '</td><td class="muted">' +
           esc(f.detail || '') + '</td></tr>';
    }
    h += '</table></details>';
  }
  return h;
}

async function tick() {
  try {
    const m = await (await fetch('/api/metrics', {cache: 'no-cache'})).json();
    document.getElementById('err').textContent =
      m.journal_error ? 'journal error: ' + m.journal_error : '';
    document.getElementById('badges').innerHTML =
      m.journal_error ? '<span class="badge">journal error</span>' : '';
    document.getElementById('meta').textContent =
      'queue ' + m.queue_depth + ' · lease ' + m.lease_ttl_ms + 'ms' +
      (m.build ? ' · ' + (m.build.git_sha || '') + ' ' + (m.build.go_version || '') : '') +
      (m.draining ? ' · DRAINING' : '');
    document.getElementById('workers').innerHTML = renderWorkers(m.workers, m.samples);
    document.getElementById('jobs').innerHTML =
      (m.jobs && m.jobs.length) ? m.jobs.map(renderJob).join('')
        : '<span class="muted">none yet</span>';
  } catch (e) {
    document.getElementById('err').textContent = 'fleet view fetch failed: ' + e;
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`

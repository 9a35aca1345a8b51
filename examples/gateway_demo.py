"""Gateway demo: publish, serve over HTTP, micro-batch, hot-swap.

The online-serving workflow end to end, in one process:

1. fit a small DSSDDI on the synthetic chronic cohort,
2. ``publish_artifact`` it into a versioned artifact root,
3. start the gateway (micro-batcher + registry + metrics) on an
   ephemeral port and fire concurrent ``POST /v1/suggest`` requests at
   it — watch them coalesce into shared flushes,
4. publish a second version and hot-swap it live via ``POST /-/reload``,
5. print the Prometheus metrics the gateway accumulated.

Usage::

    python examples/gateway_demo.py

In production you would run steps 1-2 as ``repro publish --scale small
--model-root models/`` and step 3 as ``repro-serve models/``.
"""

import http.client
import json
import tempfile
import threading
from pathlib import Path

from repro.core import DSSDDI, DSSDDIConfig, ServerConfig
from repro.data import generate_chronic_cohort, split_patients, standardize_features
from repro.server import (
    GatewayApp,
    ModelRegistry,
    build_server,
    publish_artifact,
    serve_in_thread,
)


def main() -> None:
    """Run the publish -> serve -> batch -> hot-swap walkthrough."""
    # 1. fit (tiny epochs: this is a demo, not an evaluation)
    cohort = generate_chronic_cohort(num_patients=200, seed=11)
    x = standardize_features(cohort.features)
    split = split_patients(cohort.num_patients, seed=1)
    config = DSSDDIConfig.fast()
    config.ddi.epochs, config.md.epochs = 20, 60
    system = DSSDDI(config)
    system.fit(x[split.train], cohort.medications[split.train], cohort.ddi)

    # 2. publish into a versioned artifact root
    root = Path(tempfile.mkdtemp()) / "models"
    version = publish_artifact(system, root)
    print(f"published {version.name} -> {version.path}")

    # 3. serve on an ephemeral port and hammer it concurrently
    app = GatewayApp(
        ModelRegistry(root),
        ServerConfig(max_batch_size=16, score_block=8),
    )
    server = build_server(app, port=0)
    port = server.server_address[1]
    _thread, stop = serve_in_thread(server)
    print(f"gateway listening on http://127.0.0.1:{port}")

    pool = x[split.test]

    def client(tid: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        for i in range(20):
            row = pool[(tid * 7 + i) % len(pool)]
            conn.request(
                "POST",
                "/v1/suggest",
                body=json.dumps({"features": [row.tolist()], "k": 3}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200, response.read()
            response.read()
        conn.close()

    threads = [threading.Thread(target=client, args=(t,)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    flushes, rows = app.metrics["repro_server_batch_size"].observed()
    print(
        f"served {rows} patient rows in {flushes} flushes "
        f"(mean micro-batch {rows / max(flushes, 1):.1f} rows)"
    )

    # 4. publish a new version and hot-swap without restarting
    second = publish_artifact(system, root, reuse_identical=False)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.request("POST", "/-/reload")
    print("reload:", json.loads(conn.getresponse().read()))
    conn.request("GET", "/healthz")
    health = json.loads(conn.getresponse().read())
    assert health["version"] == second.name
    print(f"now serving {health['version']} (zero requests dropped)")

    # 5. the metrics a Prometheus scraper would collect
    conn.request("GET", "/metrics")
    text = conn.getresponse().read().decode()
    interesting = [
        line
        for line in text.splitlines()
        if line.startswith(
            ("repro_server_requests_total", "repro_server_batch_size_bucket",
             "repro_server_model_info")
        )
    ]
    print("\n".join(interesting))

    conn.close()
    stop()
    app.close()


if __name__ == "__main__":
    main()

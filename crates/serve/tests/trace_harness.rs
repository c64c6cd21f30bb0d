//! The trace harness over TCP, in its own process: the tracer is
//! process-global, so a test that installs a sink and checks the whole
//! capture must not share it with other tests' servers.

use velv_serve::{serve, JobSpec, ServeClient, ServeHandle, ServiceConfig};

#[test]
fn shutdown_flushes_trace_buffers_through_the_tcp_harness() {
    // The sink sees every record of the process, and a span another test
    // opened before the install would close into it unmatched: hence a
    // process of its own.
    let sink = std::sync::Arc::new(velv_obs::MemorySink::new());
    velv_obs::install_sink(sink.clone());

    let handle = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let control = serve(handle, "127.0.0.1:0").expect("bind an ephemeral port");
    let addr = control.addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .submit(JobSpec::parse_wire("model=dlx1:bug:1").unwrap())
        .expect("submit succeeds");
    client.shutdown().expect("shutdown");
    control.wait();
    velv_obs::uninstall_sink();

    let contents = sink.contents();
    let summary = velv_obs::check_trace(&contents).expect("well-formed trace capture");
    assert!(summary.records > 0, "shutdown drained the trace buffers");
    assert!(
        contents.contains("\"serve.shutdown\""),
        "the graceful shutdown event reached the sink: {contents}"
    );
    assert!(
        contents.contains("\"serve.job\""),
        "the job span reached the sink: {contents}"
    );
}

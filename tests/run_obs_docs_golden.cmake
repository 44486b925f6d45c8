# Byte-identity guard for the observability documents: runs
# capbench_figures on two pinned scenarios with metrics (and, for the
# overload pulse, interval time-series) collection on, and compares each
# document byte-for-byte against its committed golden.  The drop ledger
# behind these documents (delivered + Σdrops == generated per app, the
# per-interval deltas, the overload episodes) must not change when its
# bookkeeping is refactored.
#
#   ext_overload_pulse  --metrics --timeseries  (bpf_store drops, episodes)
#   ext_multiqueue      --metrics               (fanout and nic_ring drops)
#
# Expects: FIGURES_BIN, OUT_DIR, GOLDEN_DIR.
if(NOT FIGURES_BIN OR NOT OUT_DIR OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "run_obs_docs_golden.cmake: missing FIGURES_BIN/OUT_DIR/GOLDEN_DIR")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})

function(run_figures)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CAPBENCH_PACKETS=1500 CAPBENCH_SAMPLE_INTERVAL=2000
            ${FIGURES_BIN} --jobs 1 ${ARGN}
    RESULT_VARIABLE run_rc
    OUTPUT_QUIET)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "capbench_figures ${ARGN} failed with exit code ${run_rc}")
  endif()
endfunction()

run_figures(--run ext_overload_pulse
            --metrics ${OUT_DIR}/obs_golden_pulse_metrics.json
            --timeseries ${OUT_DIR}/obs_golden_pulse_timeseries.json)
run_figures(--run ext_multiqueue
            --metrics ${OUT_DIR}/obs_golden_multiqueue_metrics.json)

foreach(doc pulse_metrics pulse_timeseries multiqueue_metrics)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT_DIR}/obs_golden_${doc}.json
            ${GOLDEN_DIR}/obs_golden_${doc}.json
    RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
            "${OUT_DIR}/obs_golden_${doc}.json is not byte-identical to the golden in "
            "${GOLDEN_DIR}; the drop ledger or its documents changed (or an intentional "
            "model change — regenerate the goldens and say so in the commit message)")
  endif()
endforeach()

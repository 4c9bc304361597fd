# Exercises micro_codec's stale-bench trap on both JSON grids: an existing
# grid recorded on a machine with more hardware threads must not be
# overwritten without --force.  Run via:
#   cmake -DMICRO_CODEC=<path> -DWORK_DIR=<dir> -P check_stale_trap.cmake
foreach(mode omp codec container serve)
  if(mode STREQUAL "omp")
    set(flag "--bench_omp_json")
    set(schema "szx-bench-omp-v3")
  elseif(mode STREQUAL "container")
    set(flag "--bench_container_json")
    set(schema "szx-bench-container-v1")
  elseif(mode STREQUAL "serve")
    set(flag "--bench_serve_json")
    set(schema "szx-bench-serve-v1")
  else()
    set(flag "--bench_json")
    set(schema "szx-bench-codec-v2")
  endif()
  set(grid "${WORK_DIR}/BENCH_${mode}_stale_trap.json")

  # A minimal grid claiming an absurdly parallel origin machine.
  file(WRITE "${grid}"
       "{\"schema\":\"${schema}\",\"hardware_threads\":100000}\n")

  execute_process(COMMAND "${MICRO_CODEC}" "${flag}=${grid}" --smoke
                  RESULT_VARIABLE refused
                  OUTPUT_QUIET ERROR_VARIABLE trap_stderr)
  if(refused EQUAL 0)
    message(FATAL_ERROR
            "stale trap (${mode}) failed: overwrite of a bigger machine's "
            "grid was allowed without --force")
  endif()
  if(NOT trap_stderr MATCHES "--force")
    message(FATAL_ERROR
            "stale trap (${mode}) refusal did not mention --force: "
            "${trap_stderr}")
  endif()

  # The trap must yield to --force and leave a fresh grid behind.
  execute_process(COMMAND "${MICRO_CODEC}" "${flag}=${grid}" --smoke --force
                  RESULT_VARIABLE forced OUTPUT_QUIET ERROR_QUIET)
  if(NOT forced EQUAL 0)
    message(FATAL_ERROR
            "stale trap (${mode}): --force overwrite failed (${forced})")
  endif()
  # Match the full field, not a bare "100000": regenerated timing values are
  # printed with six decimals, so e.g. 1.100000 would false-positive.
  file(READ "${grid}" fresh)
  if(fresh MATCHES "\"hardware_threads\": *100000")
    message(FATAL_ERROR
            "stale trap (${mode}): --force did not regenerate the grid")
  endif()
  if(NOT fresh MATCHES "\"hardware_threads\"")
    message(FATAL_ERROR
            "stale trap (${mode}): regenerated grid lost hardware_threads")
  endif()
  file(REMOVE "${grid}")
endforeach()

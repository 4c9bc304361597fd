# Exercises the grids' stale-bench trap: an existing grid recorded on a
# machine with more hardware threads must not be overwritten without
# --force.  Run via:
#   cmake -DWORK_DIR=<dir> -P check_stale_trap.cmake -- <grid binary>...

# The grid binaries are the arguments after `--`.
set(grids "")
set(after_dashes FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(after_dashes)
    list(APPEND grids "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT grids)
  message(FATAL_ERROR "usage: cmake -DWORK_DIR=<dir> -P ${CMAKE_SCRIPT_MODE_FILE} -- <grid binary>...")
endif()

# Runs the command in ARGN against a grid file claiming `claimed` hardware
# threads and fails unless the grid refuses and names --force.
function(expect_refusal name grid claimed)
  file(WRITE "${grid}" "{\"hardware_threads\":${claimed}}\n")
  execute_process(COMMAND ${ARGN} "--out=${grid}" --smoke
                  RESULT_VARIABLE refused
                  OUTPUT_QUIET ERROR_VARIABLE trap_stderr)
  if(refused EQUAL 0)
    message(FATAL_ERROR
            "stale trap (${name}) failed: overwrite of a grid recorded with "
            "${claimed} hardware threads was allowed without --force")
  endif()
  if(NOT trap_stderr MATCHES "--force")
    message(FATAL_ERROR
            "stale trap (${name}) refusal did not mention --force: "
            "${trap_stderr}")
  endif()
endfunction()

# The pinned case needs two CPUs to pin away from, and taskset to pin.
find_program(TASKSET taskset)
cmake_host_system_information(RESULT cpus QUERY NUMBER_OF_LOGICAL_CORES)
if(NOT TASKSET OR cpus LESS 2)
  message(STATUS "stale trap: skipping the pinned-affinity case "
                 "(needs taskset and at least 2 CPUs)")
endif()

foreach(bin ${grids})
  get_filename_component(name "${bin}" NAME)
  set(grid "${WORK_DIR}/BENCH_${name}_stale_trap.json")

  # A minimal grid claiming an absurdly parallel origin machine.
  expect_refusal("${name}" "${grid}" 100000 "${bin}")

  # The trap must yield to --force and leave a fresh grid behind.
  execute_process(COMMAND "${bin}" "--out=${grid}" --smoke --force
                  RESULT_VARIABLE forced OUTPUT_QUIET ERROR_QUIET)
  if(NOT forced EQUAL 0)
    message(FATAL_ERROR
            "stale trap (${name}): --force overwrite failed (${forced})")
  endif()
  # Match the full field, not a bare "100000": regenerated timing values
  # can contain that digit run.
  file(READ "${grid}" fresh)
  if(fresh MATCHES "\"hardware_threads\": *100000")
    message(FATAL_ERROR
            "stale trap (${name}): --force did not regenerate the grid")
  endif()
  if(NOT fresh MATCHES "\"hardware_threads\"")
    message(FATAL_ERROR
            "stale trap (${name}): regenerated grid lost hardware_threads")
  endif()

  # Pinned to one CPU, the process may run on one hardware thread, so a
  # grid recorded with two must be refused: the count is the affinity mask,
  # not the machine.
  if(TASKSET AND NOT cpus LESS 2)
    expect_refusal("${name}, taskset -c 0" "${grid}" 2
                   "${TASKSET}" -c 0 "${bin}")
  endif()
  file(REMOVE "${grid}")
endforeach()

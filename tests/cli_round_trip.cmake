# End-to-end check of the ipc CLI on the default (one-block) layout:
# compress a 16^3 f64 field without --block-side, check that `info` reports
# a v2 archive of one block, retrieve at an absolute bound of 1e-4, and check
# with `stats` that the reconstruction meets it.  Also checks that the
# removed `--codec` and `ipc serve --mmap` flags are rejected with the usage
# hint.
#
#   cmake -DCLI=<ipc_cli> -DPYTHON=<python3> -DWORK_DIR=<dir> \
#         -P cli_round_trip.cmake

function(run_cli out_var)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ipc ${ARGN} exited ${rc}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

file(MAKE_DIRECTORY ${WORK_DIR})
set(field ${WORK_DIR}/field.raw)
set(archive ${WORK_DIR}/field.ipc)
set(recon ${WORK_DIR}/recon.raw)

execute_process(
  COMMAND ${PYTHON} -c "import math, struct, sys
with open(sys.argv[1], 'wb') as f:
    for z in range(16):
        for y in range(16):
            for x in range(16):
                f.write(struct.pack('<d', math.sin(x / 3) + math.cos(y / 4) * math.sin(z / 5)))
" ${field}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not write the input field")
endif()

run_cli(out compress ${field} ${archive} --dims 16x16x16 --type f64 --eb 1e-6)
# Segments are always probe-routed; a codec choice is an unknown flag.
execute_process(
  COMMAND ${CLI} compress ${field} ${WORK_DIR}/tryall.ipc --dims 16x16x16
          --type f64 --codec tryall
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "ipc compress --codec tryall exited 0")
endif()
if(NOT err MATCHES "unknown flag --codec" OR NOT err MATCHES "usage:")
  message(FATAL_ERROR "ipc compress --codec gave no usage hint:\n${out}${err}")
endif()

# The daemon reads archives through one storage path; a storage choice is an
# unknown flag, refused before anything listens (the timeout keeps a daemon
# that did start from hanging the test).
execute_process(
  COMMAND ${CLI} serve ${archive} --listen 127.0.0.1:0 --mmap on
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 20)
if(rc EQUAL 0 OR NOT rc MATCHES "^[0-9]+$")
  message(FATAL_ERROR "ipc serve --mmap on exited ${rc}")
endif()
if(NOT err MATCHES "unknown flag --mmap" OR NOT err MATCHES "usage:")
  message(FATAL_ERROR "ipc serve --mmap gave no usage hint:\n${out}${err}")
endif()

run_cli(info info ${archive})
message(STATUS "ipc info:\n${info}")
if(NOT info MATCHES "format      : v2\n")
  message(FATAL_ERROR "expected a v2 archive")
endif()
if(NOT info MATCHES "\\(1 blocks\\)")
  message(FATAL_ERROR "expected one block")
endif()

run_cli(out retrieve ${archive} ${recon} --eb 1e-4)
run_cli(stats stats ${field} ${recon} --dims 16x16x16 --type f64)
message(STATUS "ipc stats:\n${stats}")
if(NOT stats MATCHES "max \\|error\\| : ([^\n]+)")
  message(FATAL_ERROR "no max |error| line")
endif()
if(CMAKE_MATCH_1 GREATER 1e-4)
  message(FATAL_ERROR "max |error| ${CMAKE_MATCH_1} exceeds 1e-4")
endif()

# Shared helpers for declaring the per-layer sdlbench targets.

# Warning flags applied to every sdlbench target (libraries, tests,
# benches, examples, tools). Escalated to errors by SDLBENCH_WARNINGS_AS_ERRORS.
function(sdl_apply_warnings target)
  target_compile_options(${target} PRIVATE -Wall -Wextra)
  # GCC 12's -Wrestrict fires a false positive inside libstdc++'s
  # std::string operator+ at -O2 (GCC PR 105329); keep strict builds
  # usable by dropping just that check there.
  if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU"
     AND CMAKE_CXX_COMPILER_VERSION VERSION_GREATER_EQUAL 12
     AND CMAKE_CXX_COMPILER_VERSION VERSION_LESS 13)
    target_compile_options(${target} PRIVATE -Wno-restrict)
  endif()
  if(SDLBENCH_WARNINGS_AS_ERRORS)
    target_compile_options(${target} PRIVATE -Werror)
  endif()
endfunction()

# sdl_add_library(<layer> SOURCES a.cpp ... [DEPS sdl_x ...])
#
# Declares the static library target `sdl_<layer>` with the repo-root
# `src/` directory on its public include path, so all code uses
# `#include "<layer>/<header>.hpp"` paths. DEPS are PUBLIC so include
# paths and transitive link edges propagate.
function(sdl_add_library layer)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  set(target sdl_${layer})
  if(ARG_SOURCES)
    add_library(${target} STATIC ${ARG_SOURCES})
  else()
    add_library(${target} INTERFACE)
  endif()
  add_library(sdlbench::${layer} ALIAS ${target})
  if(ARG_SOURCES)
    target_include_directories(${target} PUBLIC ${PROJECT_SOURCE_DIR}/src)
    target_link_libraries(${target} PUBLIC ${ARG_DEPS})
    sdl_apply_warnings(${target})
  else()
    target_include_directories(${target} INTERFACE ${PROJECT_SOURCE_DIR}/src)
    target_link_libraries(${target} INTERFACE ${ARG_DEPS})
  endif()
endfunction()

# sdl_add_executable(<name> SOURCES main.cpp ... [DEPS sdl_x ...])
function(sdl_add_executable name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  add_executable(${name} ${ARG_SOURCES})
  target_link_libraries(${name} PRIVATE ${ARG_DEPS})
  sdl_apply_warnings(${name})
endfunction()
